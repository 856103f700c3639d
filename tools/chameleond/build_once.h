#ifndef CHAMELEON_TOOLS_CHAMELEOND_BUILD_ONCE_H_
#define CHAMELEON_TOOLS_CHAMELEOND_BUILD_ONCE_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace chameleon::daemon {

/// A map from key to an immutable shared value that is built on first use
/// and then served to every later caller. The value must be a pure
/// function of its key, so a cached entry is never stale.
///
/// Concurrent first callers for one key wait on a single build. A failed
/// build is not cached: every caller waiting on it gets its status, and
/// the next call for the key builds afresh. Builds run outside the map's
/// lock, so a slow build never blocks lookups of other keys.
template <typename Key, typename T>
class BuildOnceMap {
 public:
  using Value = std::shared_ptr<const T>;

  /// Returns the value for `key`, running `build()` (a callable returning
  /// util::Result<Value>) when no caller has built it yet. `*built` is set
  /// true only for the one call that ran `build`.
  template <typename BuildFn>
  util::Result<Value> GetOrBuild(const Key& key, BuildFn&& build,
                                 bool* built) {
    std::promise<util::Result<Value>> promise;
    std::shared_future<util::Result<Value>> ready;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      *built = it == entries_.end();
      if (*built) {
        ready = promise.get_future().share();
        entries_.emplace(key, ready);
      } else {
        ready = it->second;
      }
    }
    if (*built) {
      util::Result<Value> value = std::forward<BuildFn>(build)();
      if (!value.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(key);
      }
      promise.set_value(std::move(value));
    }
    return ready.get();
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::shared_future<util::Result<Value>>> entries_
      CHAMELEON_GUARDED_BY(mutex_);
};

}  // namespace chameleon::daemon

#endif  // CHAMELEON_TOOLS_CHAMELEOND_BUILD_ONCE_H_
