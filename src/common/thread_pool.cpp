#include "common/thread_pool.hpp"

#include <algorithm>

namespace tvacr::common {

ThreadPool::ThreadPool(std::size_t workers) : worker_count_(std::max<std::size_t>(workers, 1)) {
    workers_.reserve(worker_count_);
    for (std::size_t i = 0; i < worker_count_; ++i) {
        workers_.emplace_back([this, i]() { worker_loop(i); });
    }
}

void ThreadPool::set_observer(TaskObserver observer) {
    std::lock_guard<std::mutex> lock(mutex_);
    observer_ = std::move(observer);
}

std::int64_t ThreadPool::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                epoch_)
        .count();
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && workers_.empty()) return;  // already shut down
        stopping_ = true;
    }
    ready_.notify_all();
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        workers.swap(workers_);
    }
    for (auto& worker : workers) {
        if (worker.joinable()) worker.join();
    }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
    for (;;) {
        Entry entry;
        TaskTiming timing;
        const TaskObserver* observer = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this]() { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) return;  // stopping_ and fully drained
            entry = std::move(tasks_.front());
            tasks_.pop();
            // Stamped under the lock, so start times follow the FIFO
            // dequeue order.
            timing.start_ns = now_ns();
            // Stable for the task's duration: set_observer is not called
            // while tasks are in flight (see header contract).
            if (observer_) observer = &observer_;
        }
        timing.sequence = entry.sequence;
        timing.worker = worker_index;
        timing.enqueue_ns = entry.enqueue_ns;
        entry.fn();  // packaged_task routes any exception into the future
        timing.finish_ns = now_ns();
        if (observer != nullptr) (*observer)(timing);
    }
}

}  // namespace tvacr::common
