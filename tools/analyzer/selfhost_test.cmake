# Self-host gate for chameleon-lint (run via `cmake -P`, wired up as the
# chameleon_lint_selfhost ctest). Asserts:
#   1. zero findings over the live tree with every rule enabled
#      (no --disable, no baseline), and
#   2. byte-identical stdout and SARIF output at --jobs=1 vs --jobs=8 —
#      the determinism contract the --jobs engine promises.
#
# Expects -DLINT=<chameleon-lint binary> -DROOT=<repo root>
#         -DWORK_DIR=<scratch dir for sarif files>.

# No path arguments: the linter's default set is the one linted path list.
set(lint_args --root=${ROOT})

execute_process(
  COMMAND ${LINT} --jobs=1 --sarif=${WORK_DIR}/selfhost_j1.sarif ${lint_args}
  OUTPUT_VARIABLE out_j1
  ERROR_VARIABLE err_j1
  RESULT_VARIABLE code_j1)
execute_process(
  COMMAND ${LINT} --jobs=8 --sarif=${WORK_DIR}/selfhost_j8.sarif ${lint_args}
  OUTPUT_VARIABLE out_j8
  ERROR_VARIABLE err_j8
  RESULT_VARIABLE code_j8)

if(NOT code_j1 EQUAL 0)
  message(FATAL_ERROR
          "chameleon-lint --jobs=1 not clean (exit ${code_j1}):\n"
          "${out_j1}${err_j1}")
endif()
if(NOT code_j8 EQUAL 0)
  message(FATAL_ERROR
          "chameleon-lint --jobs=8 not clean (exit ${code_j8}):\n"
          "${out_j8}${err_j8}")
endif()
if(NOT out_j1 STREQUAL out_j8)
  message(FATAL_ERROR
          "stdout differs between --jobs=1 and --jobs=8:\n"
          "--- jobs=1 ---\n${out_j1}\n--- jobs=8 ---\n${out_j8}")
endif()

file(READ ${WORK_DIR}/selfhost_j1.sarif sarif_j1)
file(READ ${WORK_DIR}/selfhost_j8.sarif sarif_j8)
if(NOT sarif_j1 STREQUAL sarif_j8)
  message(FATAL_ERROR "SARIF differs between --jobs=1 and --jobs=8")
endif()

message(STATUS "chameleon-lint selfhost: clean at jobs=1 and jobs=8, "
               "outputs byte-identical")
