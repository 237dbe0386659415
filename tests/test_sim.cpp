// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace repro::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime observed = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150u);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fires = 0;
  const EventId id = sim.schedule_at(10, [&] { ++fires; });
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  sim.schedule_at(20, [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulation, CancelUnknownIdIsNoop) {
  Simulation sim;
  sim.cancel(9999);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<SimTime> fired;
  for (SimTime t : {10u, 20u, 30u, 40u}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  const std::size_t count = sim.run_until(25);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 25u);  // clock advances to the deadline
  EXPECT_EQ(sim.pending(), 2u);
}

TEST(Simulation, RunUntilAdvancesClockOnEmptyQueue) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9u);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fires = 0;
  sim.schedule_at(1, [&] { ++fires; });
  sim.schedule_at(2, [&] { ++fires; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunHonorsMaxEvents) {
  Simulation sim;
  int fires = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++fires; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fires, 4);
}

TEST(Simulation, PendingExcludesCancelled) {
  Simulation sim;
  const EventId a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, SchedulingIntoThePastAborts) {
  Simulation sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(50, [] {}), "past");
}

TEST(Simulation, CancelledHeadDoesNotAdvanceClockInRunUntil) {
  Simulation sim;
  const EventId a = sim.schedule_at(10, [] {});
  bool fired = false;
  sim.schedule_at(30, [&] { fired = true; });
  sim.cancel(a);
  sim.run_until(20);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 20u);
}

// ---- slot reuse ------------------------------------------------------------------

TEST(Simulation, StaleIdCannotCancelTheSlotsNextOccupant) {
  Simulation sim;
  int fires = 0;
  // A fired event's slot is reused by the next schedule.
  const EventId fired = sim.schedule_at(10, [&] { ++fires; });
  sim.run();
  const EventId next = sim.schedule_at(20, [&] { ++fires; });
  EXPECT_NE(fired, next);
  sim.cancel(fired);
  EXPECT_EQ(sim.pending(), 1u);

  // So is a cancelled event's, once its heap entry has been skipped.
  const EventId cancelled = sim.schedule_at(30, [&] { fires += 100; });
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(fires, 2);
  const EventId reused = sim.schedule_at(40, [&] { ++fires; });
  EXPECT_NE(cancelled, reused);
  sim.cancel(cancelled);
  sim.cancel(next);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(Simulation, SameTimeEventsFireInScheduleOrderAcrossSlotReuse) {
  Simulation sim;
  std::vector<int> order;
  // Free slots in a scrambled order: fire some, cancel others.
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(sim.schedule_at(5, [] {}));
  for (int i : {6, 1, 3}) sim.cancel(ids[i]);
  sim.run();
  // Slot indices now come back in free-list order, not schedule order;
  // ties must still break by schedule order.
  for (int i = 0; i < 12; ++i) {
    const EventId id = sim.schedule_at(50, [&order, i] { order.push_back(i); });
    if (i == 4) sim.cancel(id);
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(Simulation, PendingAndIdleSkipCancelledHeads) {
  Simulation sim;
  const EventId a = sim.schedule_at(10, [] {});
  const EventId b = sim.schedule_at(20, [] {});
  bool fired = false;
  const EventId c = sim.schedule_at(30, [&] { fired = true; });
  sim.cancel(a);
  sim.cancel(a);  // a second cancel must not count twice
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_FALSE(sim.idle());
  sim.cancel(b);
  sim.cancel(c);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.idle());
  // Only cancelled entries are queued: nothing runs, the clock stays.
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.idle());

  sim.schedule_at(40, [&] { fired = true; });
  const EventId d = sim.schedule_at(5, [] {});
  sim.cancel(d);  // a cancelled head in front of a live event
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 40u);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace repro::sim
