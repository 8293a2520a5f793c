#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "casvm/net/comm.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::net {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParseRoundTripsEveryKind) {
  const std::string text =
      "crash:rank=1,op=5;crash:rank=2,phase=train;drop:src=0,dst=1,nth=1;"
      "delay:src=1,dst=0,seconds=0.001;slow:rank=3,factor=4";
  const FaultPlan plan = FaultPlan::parse(text, 7);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.faults.size(), 5u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::CrashAtOp);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::CrashAtPhase);
  EXPECT_EQ(plan.faults[1].phase, "train");
  EXPECT_EQ(plan.faults[2].kind, FaultKind::DropMessage);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::DelayMessage);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::SlowRank);
  // describe() re-parses to the same plan.
  const FaultPlan again = FaultPlan::parse(plan.describe(), 7);
  EXPECT_EQ(again.describe(), plan.describe());
  ASSERT_EQ(again.faults.size(), plan.faults.size());
}

TEST(FaultPlanTest, EmptyAndWhitespaceTextYieldEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ; ").empty());
  EXPECT_EQ(FaultPlan{}.describe(), "");
}

TEST(FaultPlanTest, MalformedClausesThrow) {
  // Unknown kind / key, missing required fields, bad numbers, bad ranges.
  EXPECT_THROW(FaultPlan::parse("explode:rank=1"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,op=5,frobnicate=2"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:op=5"), Error);               // no rank
  EXPECT_THROW(FaultPlan::parse("crash:rank=1"), Error);             // no op/phase
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,op=2,phase=x"), Error);  // both
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,op=0"), Error);        // 1-based
  EXPECT_THROW(FaultPlan::parse("crash:rank=zzz,op=1"), Error);
  EXPECT_THROW(FaultPlan::parse("drop:nth=1"), Error);               // no edge
  EXPECT_THROW(FaultPlan::parse("drop:src=0,prob=0"), Error);
  EXPECT_THROW(FaultPlan::parse("drop:src=0,prob=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("delay:src=0,dst=1"), Error);        // no seconds
  EXPECT_THROW(FaultPlan::parse("slow:rank=1,factor=0.5"), Error);
  EXPECT_THROW(FaultPlan::parse("slow:factor=2"), Error);
}

TEST(FaultPlanTest, PhaseCrashTimesAndNthParseAndRoundTrip) {
  const FaultPlan plan = FaultPlan::parse(
      "crash:rank=2,phase=solve,nth=3;crash:rank=1,phase=train,times=2;"
      "crash:rank=0,phase=solve,times=0");
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::CrashAtPhase);
  EXPECT_EQ(plan.faults[0].nth, 3);
  EXPECT_EQ(plan.faults[0].times, 1);  // default: fire once
  EXPECT_EQ(plan.faults[1].times, 2);
  EXPECT_EQ(plan.faults[2].times, 0);  // 0 = every entry
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());
}

/// Parse `text`, which must fail, and return the error message.
std::string parseErrorOf(const std::string& text) {
  try {
    (void)FaultPlan::parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse of '" << text << "' to throw";
  return "";
}

TEST(FaultPlanTest, UnknownKindErrorNamesTokenAndListsValidKinds) {
  const std::string what = parseErrorOf("fizzle:rank=1");
  EXPECT_NE(what.find("fizzle"), std::string::npos);
  EXPECT_NE(what.find("crash, drop, delay, slow"), std::string::npos);
}

TEST(FaultPlanTest, UnknownKeyErrorNamesTokenAndListsValidKeys) {
  const std::string what = parseErrorOf("crash:rank=1,bogus=2,op=5");
  EXPECT_NE(what.find("bogus"), std::string::npos);
  EXPECT_NE(what.find("rank, op, phase, nth, times"), std::string::npos);
  // A key that exists for another kind is still invalid here, and the
  // error lists the keys of the kind that was actually written.
  const std::string crossed = parseErrorOf("slow:rank=1,seconds=3");
  EXPECT_NE(crossed.find("seconds"), std::string::npos);
  EXPECT_NE(crossed.find("rank, factor"), std::string::npos);
}

TEST(FaultPlanTest, BadValueErrorQuotesTheValueAndClause) {
  const std::string what = parseErrorOf("crash:rank=two,op=1");
  EXPECT_NE(what.find("'two'"), std::string::npos);
  EXPECT_NE(what.find("crash:rank=two,op=1"), std::string::npos);
}

TEST(FaultPlanTest, CrashClauseErrorsExplainPhaseVocabulary) {
  // A crash clause missing op=/phase= must point at the driver's phase
  // labels so the user knows what to write.
  const std::string what = parseErrorOf("crash:rank=1");
  EXPECT_NE(what.find("'init', 'train' and 'solve'"), std::string::npos);
}

TEST(FaultPlanTest, TimesAndNthRejectedOutsidePhaseCrashes) {
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,op=2,nth=3"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,op=2,times=2"), Error);
  const std::string what = parseErrorOf("crash:rank=1,op=2,times=2");
  EXPECT_NE(what.find("phase placement only"), std::string::npos);
  // Negative windows are nonsense at parse time, not mid-run.
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,phase=solve,nth=-1"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,phase=solve,times=-2"), Error);
}

TEST(FaultPlanTest, TargetsOutsideWorldRejectedAtInjectorConstruction) {
  EXPECT_THROW(FaultInjector(FaultPlan::parse("crash:rank=4,op=1"), 4), Error);
  EXPECT_THROW(FaultInjector(FaultPlan::parse("drop:src=9,dst=0"), 4), Error);
  EXPECT_NO_THROW(FaultInjector(FaultPlan::parse("crash:rank=3,op=1"), 4));
  EXPECT_THROW(FaultInjector(FaultPlan::parse("kill:rank=4,op=1"), 4), Error);
}

TEST(FaultPlanTest, KillAndHangParseAndRoundTrip) {
  const FaultPlan plan = FaultPlan::parse(
      "kill:rank=2,phase=solve;hang:rank=1,op=7;"
      "kill:rank=0,phase=train,nth=2,times=3");
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::KillRank);
  EXPECT_EQ(plan.faults[0].phase, "solve");
  EXPECT_EQ(plan.faults[1].kind, FaultKind::HangRank);
  EXPECT_EQ(plan.faults[1].op, 7);
  EXPECT_EQ(plan.faults[2].nth, 2);
  EXPECT_EQ(plan.faults[2].times, 3);
  EXPECT_TRUE(plan.requiresProcessTransport());
  EXPECT_FALSE(FaultPlan::parse("crash:rank=1,op=5;drop:src=0")
                   .requiresProcessTransport());
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlanTest, KillAndHangShareCrashPlacementValidation) {
  EXPECT_THROW(FaultPlan::parse("kill:op=1"), Error);           // no rank
  EXPECT_THROW(FaultPlan::parse("kill:rank=1"), Error);         // no op/phase
  EXPECT_THROW(FaultPlan::parse("hang:rank=1,op=2,phase=x"), Error);  // both
  EXPECT_THROW(FaultPlan::parse("hang:rank=1,op=0"), Error);    // 1-based
  EXPECT_THROW(FaultPlan::parse("kill:rank=1,seconds=2"), Error);  // bad key
}

TEST(FaultInjectorTest, KillWithoutProcessSignalsThrowsNamedError) {
  // Without process-signals mode a firing kill/hang clause must explain
  // that it needs the process transport, not deliver a signal.
  FaultInjector killer(FaultPlan::parse("kill:rank=0,op=1"), 2);
  try {
    killer.onSend(0, 1);
    FAIL() << "expected the kill clause to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--transport proc"), std::string::npos);
    EXPECT_NE(what.find("kill:rank=0,op=1"), std::string::npos);
  }
  FaultInjector hanger(FaultPlan::parse("hang:rank=1,phase=solve"), 2);
  EXPECT_THROW(hanger.atPhase(1, "solve"), Error);
  // Non-matching ranks and phases are unaffected.
  EXPECT_NO_THROW(hanger.atPhase(0, "solve"));
  EXPECT_NO_THROW(hanger.atPhase(1, "init"));
}

// ---------------------------------------------------------------------------
// Crash injection through the Engine
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, CrashAtOpKillsExactlyTheConfiguredOp) {
  // Rank 1 performs sends to rank 0; its 3rd comm op must be the fatal one,
  // so exactly 2 messages arrive.
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("crash:rank=1,op=3"));
  std::atomic<int> delivered{0};
  try {
    engine.run([&](Comm& c) {
      if (c.rank() == 1) {
        for (int i = 0; i < 10; ++i) c.send(0, i);
      } else {
        for (int i = 0; i < 10; ++i) {
          (void)c.recv<int>(1);
          ++delivered;
        }
      }
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected fault"), std::string::npos);
    EXPECT_NE(what.find("rank 1"), std::string::npos);
    EXPECT_NE(what.find("op 3"), std::string::npos);
  }
  EXPECT_EQ(delivered.load(), 2);
}

TEST(FaultInjectionTest, SameSeedSamePlanReproducesIdenticalOutcome) {
  // Determinism contract: run the same faulted program twice and compare
  // the error text and side effects exactly.
  std::vector<std::string> whats;
  std::vector<int> delivered;
  for (int round = 0; round < 2; ++round) {
    Engine engine(3);
    engine.setFaultPlan(FaultPlan::parse("crash:rank=2,op=4", 99));
    int got = 0;
    try {
      engine.run([&](Comm& c) {
        if (c.rank() == 2) {
          for (int i = 0; i < 8; ++i) c.send(0, i);
        } else if (c.rank() == 0) {
          for (int i = 0; i < 8; ++i) {
            (void)c.recv<int>(2);
            ++got;
          }
        }
      });
      FAIL() << "expected throw";
    } catch (const Error& e) {
      whats.emplace_back(e.what());
      delivered.push_back(got);
    }
  }
  ASSERT_EQ(whats.size(), 2u);
  EXPECT_EQ(whats[0], whats[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(FaultInjectionTest, CrashAtPhaseFiresAtNamedCheckpointOnly) {
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("crash:rank=0,phase=shutdown"));
  // A different label does not fire.
  EXPECT_NO_THROW(engine.run([](Comm& c) { c.faultCheckpoint("startup"); }));
  try {
    engine.run([](Comm& c) {
      c.faultCheckpoint("startup");
      c.faultCheckpoint("shutdown");
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected fault"), std::string::npos);
    EXPECT_NE(what.find("phase 'shutdown'"), std::string::npos);
  }
}

TEST(FaultInjectionTest, PhaseCrashWindowFiresOnNthThroughNthPlusTimes) {
  // nth=2,times=2 → entries 2 and 3 crash; entries 1, 4, 5 pass. This is
  // the budget the rank-retry path consumes: a retried rank re-enters the
  // phase and survives once the window is spent.
  FaultInjector injector(
      FaultPlan::parse("crash:rank=0,phase=solve,nth=2,times=2"), 1);
  EXPECT_NO_THROW(injector.atPhase(0, "solve"));  // entry 1
  EXPECT_THROW(injector.atPhase(0, "solve"), RankCrash);  // entry 2
  EXPECT_THROW(injector.atPhase(0, "solve"), RankCrash);  // entry 3
  EXPECT_NO_THROW(injector.atPhase(0, "solve"));  // entry 4: budget spent
  EXPECT_NO_THROW(injector.atPhase(0, "solve"));  // entry 5
}

TEST(FaultInjectionTest, PhaseCrashTimesZeroFiresOnEveryEntry) {
  FaultInjector injector(
      FaultPlan::parse("crash:rank=0,phase=train,times=0"), 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(injector.atPhase(0, "train"), RankCrash) << "entry " << i;
  }
}

TEST(FaultInjectionTest, ToleratedCrashRecordedInRunStats) {
  // With tolerance on, the crash of rank 1 must not sink the run: rank 0
  // completes, the result is degraded, and the failure names the fault.
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("crash:rank=1,phase=work"));
  engine.setTolerateRankFailures(true);
  std::atomic<bool> rank0Done{false};
  const RunStats stats = engine.run([&](Comm& c) {
    c.faultCheckpoint("work");
    if (c.rank() == 0) rank0Done = true;
  });
  EXPECT_TRUE(rank0Done.load());
  EXPECT_TRUE(stats.degraded());
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].rank, 1);
  EXPECT_NE(stats.failures[0].reason.find("injected fault"),
            std::string::npos);
}

TEST(FaultInjectionTest, WaitingOnToleratedCrashNamesTheDeadPeer) {
  // Rank 0 waits for a message the crashed rank will never send: the wait
  // must unwind with an error naming the dead peer, not hang.
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("crash:rank=1,phase=work"));
  engine.setTolerateRankFailures(true);
  try {
    engine.run([](Comm& c) {
      c.faultCheckpoint("work");
      if (c.rank() == 0) (void)c.recv<int>(1);
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("peer rank 1 failed"), std::string::npos);
    EXPECT_NE(what.find("injected fault"), std::string::npos);
  }
}

TEST(FaultInjectionTest, OrganicFailureStillAbortsUnderTolerance) {
  // Tolerance covers injected RankCrash only; a real bug must abort.
  Engine engine(2);
  engine.setTolerateRankFailures(true);
  EXPECT_THROW(engine.run([](Comm& c) {
                 if (c.rank() == 1) throw Error("organic bug");
                 (void)c.recv<int>(1);
               }),
               Error);
}

// ---------------------------------------------------------------------------
// Drop / delay / slow
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DroppedMessageNeverArrivesButCostIsPaid) {
  // Drop the first 1->0 message; the second one still arrives. Traffic
  // records both (the bytes left the NIC).
  FaultInjector injector(FaultPlan::parse("drop:src=1,dst=0,nth=1"), 2);
  World world(2, CostModel{}, &injector);
  VirtualClock clock0, clock1;
  clock0.start();
  clock1.start();
  Comm c1(&world, 1, &clock1);
  c1.send(0, 111, 0);
  c1.send(0, 222, 0);
  EXPECT_EQ(world.mailbox(0).pending(), 1u);  // first was dropped
  Comm c0(&world, 0, &clock0);
  EXPECT_EQ(c0.recv<int>(1, 0), 222);
  const TrafficSnapshot traffic = world.traffic().snapshot();
  EXPECT_EQ(traffic.totalOps(), 2u);  // dropped send still recorded
}

TEST(FaultInjectionTest, ProbabilisticDropIsSeedDeterministic) {
  // The per-sender RNG stream makes the drop pattern a pure function of
  // (seed, program order): two identical runs agree message for message.
  std::vector<std::vector<int>> arrivals;
  for (int round = 0; round < 2; ++round) {
    FaultInjector injector(FaultPlan::parse("drop:src=1,prob=0.5", 1234), 2);
    World world(2, CostModel{}, &injector);
    VirtualClock clock;
    clock.start();
    Comm c1(&world, 1, &clock);
    for (int i = 0; i < 64; ++i) c1.send(0, i, /*tag=*/i % 4);
    std::vector<int> seen;
    for (const auto& q : world.mailbox(0).pendingQueues()) {
      seen.push_back(q.tag * 1000 + static_cast<int>(q.depth));
    }
    arrivals.push_back(std::move(seen));
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
  // And a different seed gives a different pattern (overwhelmingly likely
  // over 64 coin flips).
  FaultInjector injector(FaultPlan::parse("drop:src=1,prob=0.5", 4321), 2);
  World world(2, CostModel{}, &injector);
  VirtualClock clock;
  clock.start();
  Comm c1(&world, 1, &clock);
  for (int i = 0; i < 64; ++i) c1.send(0, i, i % 4);
  std::vector<int> seen;
  for (const auto& q : world.mailbox(0).pendingQueues()) {
    seen.push_back(q.tag * 1000 + static_cast<int>(q.depth));
  }
  EXPECT_NE(seen, arrivals[0]);
}

TEST(FaultInjectionTest, DelayedMessageChargesReceiverWaitTime) {
  // +50ms virtual latency on 0->1: the receive completes no earlier than
  // the message arrives (arrival-time propagation), so the receiver's
  // clock reaches the sender's send time plus the delay, and the wait is
  // charged as comm time, dwarfing the undelayed baseline. The receiver's
  // comm time alone can fall a hair under 0.05 s: its thread may have used
  // more CPU than the sender's before the exchange.
  struct Timing {
    RunStats stats;
    double sentAt = 0.0;
    double receivedAt = 0.0;
  };
  const auto run = [](const std::string& spec) {
    Engine engine(2);
    engine.setFaultPlan(FaultPlan::parse(spec));
    Timing t;
    t.stats = engine.run([&t](Comm& c) {
      if (c.rank() == 0) {
        c.send(1, 7);
        t.sentAt = c.clock().now();
      } else {
        (void)c.recv<int>(0);
        t.receivedAt = c.clock().now();
      }
    });
    return t;
  };
  const Timing slow = run("delay:src=0,dst=1,seconds=0.05");
  const Timing fast = run("");
  EXPECT_GE(slow.receivedAt, slow.sentAt + 0.05);
  EXPECT_GT(slow.stats.commSeconds[1], fast.stats.commSeconds[1]);
  EXPECT_LT(fast.stats.commSeconds[1], 0.05);
}

TEST(VirtualClockTest, AdvanceToReachesTheArrivalTime) {
  // compute + comm + wait re-summed after advancing rounds one ulp short
  // of these arrival times; the clock must still read at least the arrival.
  const double cases[][3] = {
      {0.0047459380568556355, 2.6993950415948051e-05, 0.052860418153531812},
      {0.0088842031245570923, 3.7060545027006268e-05, 0.050384381506781629},
  };
  for (const auto& [compute, comm, arrival] : cases) {
    VirtualClock clock;
    clock.addCompute(compute);
    clock.addComm(comm);
    clock.advanceTo(arrival);
    EXPECT_GE(clock.now(), arrival);
    EXPECT_EQ(clock.computeSeconds(), compute);
  }
}

TEST(FaultInjectionTest, SlowRankScalesComputeOnVirtualClock) {
  // Same real work on both ranks; rank 1 is configured 8x slower, so its
  // virtual compute time must come out well above rank 0's.
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("slow:rank=1,factor=8"));
  const RunStats stats = engine.run([](Comm&) {
    double x = 1.0;
    for (int i = 0; i < 8000000; ++i) x = x * 1.0000001 + 1e-9;
    EXPECT_GT(x, 0.0);
  });
  EXPECT_GT(stats.computeSeconds[1], stats.computeSeconds[0] * 3.0);
}

// ---------------------------------------------------------------------------
// Deadlock watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, DroppedMessageDeadlockDetectedWithDiagnosticDump) {
  // Drop the only message of the run: the receiver blocks forever and only
  // the watchdog can unwind it. The whole detection must stay wall-clock
  // bounded, and the report names the blocked (src, tag).
  WallTimer wall;
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("drop:src=0,dst=1,nth=1"));
  engine.setWatchdogSeconds(0.2);
  try {
    engine.run([](Comm& c) {
      if (c.rank() == 0) c.send(1, 7, /*tag=*/5);
      else (void)c.recv<int>(0, /*tag=*/5);
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock watchdog"), std::string::npos);
    EXPECT_NE(what.find("blocked waiting on (src=0, tag=5)"),
              std::string::npos);
    EXPECT_NE(what.find("active fault plan"), std::string::npos);
    EXPECT_NE(what.find("drop:src=0,dst=1,nth=1"), std::string::npos);
  }
  EXPECT_LT(wall.seconds(), 20.0);  // bounded, not hung
}

TEST(WatchdogTest, DroppedCollectiveInternalMessageDetected) {
  // Lose rank 1's barrier token (1->0, a collective-internal message):
  // both ranks end up parked inside the barrier and the watchdog must
  // dump every mailbox's pending queues.
  WallTimer wall;
  Engine engine(2);
  engine.setFaultPlan(FaultPlan::parse("drop:src=1,dst=0,nth=1"));
  engine.setWatchdogSeconds(0.2);
  try {
    engine.run([](Comm& c) { c.barrier(); });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock watchdog"), std::string::npos);
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 1"), std::string::npos);
    EXPECT_NE(what.find("blocked waiting on"), std::string::npos);
  }
  EXPECT_LT(wall.seconds(), 20.0);
}

TEST(WatchdogTest, SlowComputeIsNotADeadlock) {
  // One rank computes well past the watchdog window while the other waits
  // for its message: progress exists (the computing rank is not blocked),
  // so the watchdog must stay silent.
  Engine engine(2);
  engine.setWatchdogSeconds(0.1);
  const RunStats stats = engine.run([](Comm& c) {
    if (c.rank() == 0) {
      WallTimer t;
      double x = 1.0;
      while (t.seconds() < 0.4) x = x * 1.0000001 + 1e-9;
      EXPECT_GT(x, 0.0);
      c.send(1, 1);
    } else {
      (void)c.recv<int>(0);
    }
  });
  EXPECT_EQ(stats.size, 2);
}

TEST(WatchdogTest, DisabledWatchdogLeavesCleanRunsAlone) {
  Engine engine(2);
  engine.setWatchdogSeconds(0.0);
  EXPECT_NO_THROW(engine.run([](Comm& c) { c.barrier(); }));
}

}  // namespace
}  // namespace casvm::net
