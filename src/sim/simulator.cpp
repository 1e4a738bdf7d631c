#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tvacr::sim {

void Simulator::at(SimTime when, Action action) {
    assert(when >= now_ && "cannot schedule into the past");
    if (when < now_) when = now_;
    queue_.push(Event{when, next_sequence_++, std::move(action)});
}

Simulator::TimerId Simulator::every(SimTime first, SimTime period, Action tick) {
    assert(first >= now_ && "cannot schedule into the past");
    const TimerId id = next_timer_++;
    timers_.push_back(
        Timer{id, std::max(first, now_), next_sequence_++, period, true, std::move(tick)});
    return id;
}

void Simulator::cancel(TimerId id) {
    const auto it = std::find_if(timers_.begin(), timers_.end(),
                                 [id](const Timer& timer) { return timer.id == id; });
    if (it == timers_.end()) return;
    if (it->armed) queue_.push(Event{it->when, it->sequence, [] {}});
    timers_.erase(it);
}

std::size_t Simulator::pending_events() const noexcept {
    return queue_.size() + static_cast<std::size_t>(std::count_if(
                               timers_.begin(), timers_.end(),
                               [](const Timer& timer) { return timer.armed; }));
}

bool Simulator::step_through(SimTime deadline) {
    // The earliest armed timer, merged with the heap top by (when, sequence).
    Timer* timer = nullptr;
    for (Timer& candidate : timers_) {
        if (candidate.armed &&
            (timer == nullptr || candidate.when < timer->when ||
             (candidate.when == timer->when && candidate.sequence < timer->sequence))) {
            timer = &candidate;
        }
    }
    if (timer != nullptr &&
        (queue_.empty() || timer->when < queue_.top().when ||
         (timer->when == queue_.top().when && timer->sequence < queue_.top().sequence))) {
        if (timer->when > deadline) return false;
        now_ = timer->when;
        ++events_processed_;
        // The tick runs from a local: it may add or cancel timers, which
        // moves timers_ under it.
        const TimerId id = timer->id;
        timer->armed = false;
        Action tick = std::move(timer->tick);
        tick();
        const auto it = std::find_if(timers_.begin(), timers_.end(),
                                     [id](const Timer& t) { return t.id == id; });
        if (it != timers_.end()) {  // not cancelled by its own tick: re-arm
            it->when = now_ + it->period;
            it->sequence = next_sequence_++;
            it->armed = true;
            it->tick = std::move(tick);
        }
        return true;
    }
    if (queue_.empty() || queue_.top().when > deadline) return false;
    // priority_queue::top is const; the action is moved out via const_cast,
    // which is safe because the element is popped immediately after.
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.when;
    ++events_processed_;
    event.action();
    return true;
}

bool Simulator::step() {
    return step_through(SimTime::micros(std::numeric_limits<std::int64_t>::max()));
}

void Simulator::run_until(SimTime deadline) {
    while (step_through(deadline)) {
    }
    // Events remain beyond the deadline: the clock parks at the deadline
    // between them. Queue drained early: the clock stays at the last event
    // fired — min(deadline, last event), as documented — so back-to-back
    // run_until calls never fabricate idle time past the simulation's end.
    if (pending_events() > 0 && now_ < deadline) now_ = deadline;
}

void Simulator::run_all() {
    while (step()) {
    }
}

}  // namespace tvacr::sim
