// Discrete-event simulator: a virtual clock and an ordered event queue.
//
// All testbed activity (TV boot, frame captures, packet deliveries, smart-plug
// power cycles) is expressed as events. Ties are broken by insertion order so
// runs are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/time.hpp"
#include "obs/scope.hpp"

namespace tvacr::sim {

class Simulator {
  public:
    using Action = std::function<void()>;
    using TimerId = std::uint64_t;

    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// This simulation's observability scope (metrics + trace). Components
    /// holding a Simulator& emit through it; one scope per simulation keeps
    /// the parallel sweep path contention- and race-free.
    [[nodiscard]] obs::Scope& obs() noexcept { return obs_; }
    [[nodiscard]] const obs::Scope& obs() const noexcept { return obs_; }

    /// Schedules `action` at absolute simulated time `at` (>= now).
    void at(SimTime when, Action action);

    /// Schedules `action` `delay` after the current time.
    void after(SimTime delay, Action action) { at(now_ + delay, std::move(action)); }

    /// Runs `tick` at `first` (>= now), and then `period` after each tick,
    /// until cancelled. It orders exactly like a handler that re-arms itself
    /// with after(period, ...) as its last statement: the first tick takes
    /// its FIFO place at this call, each later one when the previous tick
    /// returns. The armed tick is held outside the event heap, so a tick
    /// costs no heap push or pop and no allocation.
    TimerId every(SimTime first, SimTime period, Action tick);

    /// Stops a timer; unknown or already cancelled ids are ignored. Called
    /// from outside the timer's tick, the armed tick stays queued as an
    /// event that does nothing, as the stale event of a self-re-arming
    /// chain would. Called from inside its own tick, nothing is left.
    void cancel(TimerId id);

    /// Runs a single event; false when the queue is empty.
    bool step();

    /// Runs events until the queue is empty or the next event is after
    /// `deadline`; the clock finishes at min(deadline, last event time).
    void run_until(SimTime deadline);

    /// Drains the queue completely.
    void run_all();

    [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
    /// Queued events, armed timer ticks included.
    [[nodiscard]] std::size_t pending_events() const noexcept;

  private:
    struct Event {
        SimTime when;
        std::uint64_t sequence;  // FIFO among same-time events
        Action action;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.when != b.when) return a.when > b.when;
            return a.sequence > b.sequence;
        }
    };
    struct Timer {
        TimerId id;
        SimTime when;  // of the armed tick
        std::uint64_t sequence;
        SimTime period;
        bool armed;  // false while its tick runs
        Action tick;
    };

    /// Runs the next event (heap or timer tick) if it is due by `deadline`.
    bool step_through(SimTime deadline);

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::vector<Timer> timers_;
    obs::Scope obs_;
    SimTime now_;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t events_processed_ = 0;
    TimerId next_timer_ = 1;
};

}  // namespace tvacr::sim
