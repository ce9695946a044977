// WalSyncLatch: parks the first WAL sync after Arm() until Release().
// A durable write syncs its WAL inside its commit, before its
// transaction publishes and while the session's writer lock is held,
// so a test can hold a store or a drop at that point -- its
// transaction open, its effects not yet visible -- for as long as it
// needs, instead of hoping a timing window lines up.

#ifndef CRIMSON_TESTS_CRIMSON_WAL_SYNC_LATCH_H_
#define CRIMSON_TESTS_CRIMSON_WAL_SYNC_LATCH_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "storage/file.h"

namespace crimson {
namespace test {

class WalSyncLatch {
 public:
  /// `base` with every file's Sync routed through this latch.
  StorageEnv Wrap(StorageEnv base) {
    StorageEnv env = base;
    env.open_file = [this, base](const std::string& path)
        -> Result<std::unique_ptr<File>> {
      CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                               base.open_file(path));
      return std::unique_ptr<File>(new LatchedFile(std::move(file), path, this));
    };
    return env;
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }

  /// Waits (up to a minute) until an armed sync is parked.
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return parked_; });
  }

  /// Lets the parked sync (and every later one) through.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  class LatchedFile final : public File {
   public:
    LatchedFile(std::unique_ptr<File> base, std::string path,
                WalSyncLatch* latch)
        : base_(std::move(base)), path_(std::move(path)), latch_(latch) {}

    Status Read(uint64_t offset, size_t n, char* scratch) const override {
      return base_->Read(offset, n, scratch);
    }
    Status Write(uint64_t offset, const char* data, size_t n) override {
      return base_->Write(offset, data, n);
    }
    Status Sync() override {
      if (path_.find("-wal") != std::string::npos) latch_->OnWalSync();
      return base_->Sync();
    }
    uint64_t Size() const override { return base_->Size(); }
    Status Truncate(uint64_t new_size) override {
      return base_->Truncate(new_size);
    }

   private:
    std::unique_ptr<File> base_;
    std::string path_;
    WalSyncLatch* latch_;
  };

  void OnWalSync() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(60), [&] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

}  // namespace test
}  // namespace crimson

#endif  // CRIMSON_TESTS_CRIMSON_WAL_SYNC_LATCH_H_
