# chameleon_cli flag gate (run via `cmake -P`, wired up as the
# chameleon_cli_flags ctest). A malformed or out-of-range numeric flag
# must exit 2 with a message naming the flag, before any work is done;
# a well-formed audit must still exit 0.
#
# Expects -DCLI=<chameleon_cli binary>.

function(expect_refused flag)
  string(JOIN " " args ${ARGN})
  execute_process(
    COMMAND ${CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR
            "chameleon_cli ${args}: expected exit 2, got ${code}:\n"
            "${out}${err}")
  endif()
  string(FIND "${err}" "--${flag}=" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "chameleon_cli ${args}: stderr does not name --${flag}:\n${err}")
  endif()
endfunction()

expect_refused(tau audit --dataset=feret --tau=abc)
expect_refused(tau audit --dataset=feret --tau=0)
expect_refused(tau audit --dataset=feret --tau=12x)
expect_refused(tau plan --dataset=feret --tau=-5)
expect_refused(tau repair --dataset=feret --tau=0)
expect_refused(rejection-batch repair --dataset=feret --rejection-batch=0)
expect_refused(rejection-batch
               repair --dataset=feret --rejection-batch=99999999999)
expect_refused(alpha repair --dataset=feret --alpha=0.1x)
expect_refused(nu repair --dataset=feret --nu=nan)
expect_refused(seed plan --dataset=feret --seed=)
expect_refused(n audit --dataset=utkface --n=abc)

execute_process(
  COMMAND ${CLI} audit --dataset=feret --tau=100
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0 OR NOT out MATCHES "MUP\\(s\\) at tau=100")
  message(FATAL_ERROR
          "chameleon_cli audit --tau=100: expected a clean audit, got exit "
          "${code}:\n${out}${err}")
endif()
