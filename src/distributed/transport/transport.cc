#include "distributed/transport/transport.h"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace skewsearch {

namespace {

/// Shared state of a loopback pair: one frame queue per direction,
/// guarded by a single mutex. A closed side wakes every waiter so no
/// Receive can block forever.
struct LoopbackCore {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<wire::Frame> queue[2];  ///< queue[i] holds frames *for* side i
  bool closed[2] = {false, false};
};

class LoopbackConnection : public FrameConnection {
 public:
  LoopbackConnection(std::shared_ptr<LoopbackCore> core, int side)
      : core_(std::move(core)), side_(side) {}

  ~LoopbackConnection() override { Close(); }

  Status Send(const wire::Frame& frame) override {
    const uint64_t frame_bytes =
        wire::kFrameHeaderBytes + frame.payload.size();
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (core_->closed[side_] || core_->closed[1 - side_]) {
        return Status::IOError("loopback: connection closed");
      }
      core_->queue[1 - side_].push_back(frame);
    }
    core_->cv.notify_all();
    stats_.frames_sent++;
    stats_.bytes_sent += frame_bytes;
    return Status::OK();
  }

  Status Receive(wire::Frame* frame) override {
    std::unique_lock<std::mutex> lock(core_->mu);
    core_->cv.wait(lock, [&] {
      return !core_->queue[side_].empty() || core_->closed[side_] ||
             core_->closed[1 - side_];
    });
    if (core_->queue[side_].empty()) {
      return Status::IOError("loopback: connection closed by peer");
    }
    *frame = std::move(core_->queue[side_].front());
    core_->queue[side_].pop_front();
    lock.unlock();
    stats_.frames_received++;
    stats_.bytes_received += wire::kFrameHeaderBytes + frame->payload.size();
    return Status::OK();
  }

  void Close() override {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->closed[side_] = true;
    }
    core_->cv.notify_all();
  }

 private:
  std::shared_ptr<LoopbackCore> core_;
  int side_;
};

}  // namespace

std::pair<std::unique_ptr<FrameConnection>, std::unique_ptr<FrameConnection>>
LoopbackPair() {
  auto core = std::make_shared<LoopbackCore>();
  return {std::make_unique<LoopbackConnection>(core, 0),
          std::make_unique<LoopbackConnection>(core, 1)};
}

}  // namespace skewsearch
