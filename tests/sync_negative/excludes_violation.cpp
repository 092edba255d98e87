// MUST NOT COMPILE under -Wthread-safety -Werror: calls a
// PHES_EXCLUDES method while already holding the excluded mutex — the
// self-deadlock shape the annotations exist to catch (mirrors the
// JobQueue public-API contract).  Expected diagnostic:
// -Wthread-safety-analysis "cannot call function ... while mutex is
// held".

#include "phes/util/sync.hpp"

#include <cstddef>
#include <deque>

namespace {

class BoundedQueue {
 public:
  void push(int v) PHES_EXCLUDES(mutex_) {
    phes::util::MutexLock lock(mutex_);
    items_.push_back(v);
  }

  std::size_t flush() PHES_EXCLUDES(mutex_) {
    phes::util::MutexLock lock(mutex_);
    push(0);  // re-entrant acquire: deadlock on a non-recursive mutex
    const std::size_t n = items_.size();
    items_.clear();
    return n;
  }

 private:
  phes::util::Mutex mutex_;
  std::deque<int> items_ PHES_GUARDED_BY(mutex_);
};

}  // namespace

int main() {
  BoundedQueue queue;
  queue.push(1);
  return queue.flush() == 2 ? 0 : 1;
}
