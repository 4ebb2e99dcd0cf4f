// Pins the causal edges each wakeup site records: for every emission an
// ack refers to, (kind, emitter pid, emission time, contended ns) -> (ack
// pid, ack time), in recording order. The critical-path walk consumes
// exactly these pairs, so they must not drift when the recording moves
// between layers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/lock_table.h"
#include "cache/sync_thread.h"
#include "common/dataview.h"
#include "common/units.h"
#include "lfs/local_fs.h"
#include "mpi/world.h"
#include "net/fabric.h"
#include "obs/causal.h"
#include "pfs/pfs.h"
#include "sim/engine.h"

namespace e10::obs {
namespace {

using namespace e10::units;

using Edges = std::vector<std::string>;

/// "kind p<pid>@<at>+<contended> -> p<pid>@<at>" per recorded ack.
Edges acks(const CausalRecorder& recorder) {
  Edges out;
  for (const CausalRecorder::Ack& ack : recorder.acks()) {
    const CausalRecorder::Emission& src = recorder.source_of(ack);
    out.push_back(std::string(sim::edge_kind_name(src.kind)) + " p" +
                  std::to_string(src.pid) + "@" + std::to_string(src.at) +
                  "+" + std::to_string(src.contended_ns) + " -> p" +
                  std::to_string(ack.pid) + "@" + std::to_string(ack.at));
  }
  return out;
}

/// "kind p<pid>@<at>" per recorded emission, acked or not.
Edges emissions(const CausalRecorder& recorder) {
  Edges out;
  for (const CausalRecorder::Emission& e : recorder.emissions()) {
    out.push_back(std::string(sim::edge_kind_name(e.kind)) + " p" +
                  std::to_string(e.pid) + "@" + std::to_string(e.at));
  }
  return out;
}

/// Two single-rank nodes; ranks are pids 0 and 1.
struct MpiRig {
  MpiRig()
      : fabric(2, net::FabricParams{}),
        world(engine, fabric, mpi::Topology(2, 1)) {}
  sim::Engine engine;
  net::Fabric fabric;
  mpi::World world;
  CausalRecorder recorder{engine};
};

constexpr Offset kEager = 4 * KiB;
constexpr Offset kRendezvous = 1 * MiB;  // above the 256 KiB threshold

TEST(CausalSites, EagerSendToPostedReceive) {
  MpiRig rig;
  rig.world.launch([&](mpi::Comm comm) {
    if (comm.rank() == 0) {
      comm.engine().delay(milliseconds(1));
      mpi::Request send = comm.isend(1, 0, 1, kEager);
      send.wait();
    } else {
      mpi::Request recv = comm.irecv(0, 0);
      recv.wait();
    }
  });
  rig.engine.run();
  // One emission at the send; the sender's tx-done wait acks it too.
  EXPECT_EQ(acks(rig.recorder),
            (Edges{"message p0@1000000+0 -> p0@1002166",
                   "message p0@1000000+0 -> p1@1005332"}));
}

TEST(CausalSites, EagerSendsToUnexpectedQueueCarryNicQueueing) {
  MpiRig rig;
  rig.world.launch([&](mpi::Comm comm) {
    if (comm.rank() == 0) {
      // Back to back: the second send queues behind the first on the NIC.
      mpi::Request first = comm.isend(1, 0, 1, 64 * KiB);
      mpi::Request second = comm.isend(1, 1, 2, 64 * KiB);
      first.wait();
      second.wait();
    } else {
      comm.engine().delay(microseconds(1));
      mpi::Request first = comm.irecv(0, 0);
      mpi::Request second = comm.irecv(0, 1);
      first.wait();
      second.wait();
    }
  });
  rig.engine.run();
  // The second emission carries the 19.4 us it waited for the NIC.
  EXPECT_EQ(acks(rig.recorder),
            (Edges{"message p0@0+0 -> p0@19400",
                   "message p0@0+19400 -> p0@38800",
                   "message p0@0+0 -> p1@39800",
                   "message p0@0+19400 -> p1@59200"}));
}

TEST(CausalSites, RendezvousSendToPostedReceive) {
  MpiRig rig;
  rig.world.launch([&](mpi::Comm comm) {
    if (comm.rank() == 0) {
      comm.engine().delay(milliseconds(1));
      mpi::Request send = comm.isend(1, 0, 1, kRendezvous);
      send.wait();
    } else {
      mpi::Request recv = comm.irecv(0, 0);
      recv.wait();
    }
  });
  rig.engine.run();
  EXPECT_EQ(acks(rig.recorder),
            (Edges{"message p0@1000000+0 -> p1@1591270",
                   "message p0@1000000+0 -> p0@1591270"}));
}

TEST(CausalSites, RendezvousSendReleasedByLaterReceive) {
  MpiRig rig;
  rig.world.launch([&](mpi::Comm comm) {
    if (comm.rank() == 0) {
      mpi::Request send = comm.isend(1, 0, 1, kRendezvous);
      send.wait();
    } else {
      comm.engine().delay(milliseconds(1));
      mpi::Request recv = comm.irecv(0, 0);
      recv.wait();
    }
  });
  rig.engine.run();
  // The receive posting at 1 ms is a second message emission: it released
  // the rendezvous sender.
  EXPECT_EQ(emissions(rig.recorder),
            (Edges{"message p0@0",
                   "message p1@1000000",
                   "process p1@1000000",
                   "process p0@1000000"}));
  EXPECT_EQ(acks(rig.recorder),
            (Edges{"message p1@1000000+0 -> p0@1000000"}));
}

TEST(CausalSites, CollectiveReleaseFollowsTheStraggler) {
  sim::Engine engine;
  net::Fabric fabric(3, net::FabricParams{});
  mpi::World world(engine, fabric, mpi::Topology(3, 1));
  CausalRecorder recorder(engine);
  world.launch([&](mpi::Comm comm) {
    if (comm.rank() == 2) comm.engine().delay(milliseconds(1));
    comm.barrier();
  });
  engine.run();
  // The straggler's own wait acks at its emission time: dropped as no edge.
  EXPECT_EQ(acks(recorder),
            (Edges{"collective p2@1006000+0 -> p0@1006000",
                   "collective p2@1006000+0 -> p1@1006000"}));
}

TEST(CausalSites, GrequestCompleteWakesAnEarlierWaiter) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  mpi::Request req = mpi::Request::grequest(engine);
  engine.spawn("waiter", [&] { req.wait(); });
  engine.spawn("completer", [&] {
    engine.delay(milliseconds(1));
    req.complete();
  });
  engine.run();
  EXPECT_EQ(acks(recorder),
            (Edges{"grequest p1@1000000+0 -> p0@1000000"}));
}

TEST(CausalSites, GrequestCompleteBeforeTheWaitGatesNothing) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  mpi::Request req = mpi::Request::grequest(engine);
  engine.spawn("waiter", [&] {
    engine.delay(milliseconds(2));
    req.wait();
  });
  engine.spawn("completer", [&] {
    engine.delay(milliseconds(1));
    req.complete();
  });
  engine.run();
  EXPECT_EQ(emissions(recorder),
            (Edges{"grequest p1@1000000",
                   "process p1@1000000",
                   "process p0@2000000"}));
  EXPECT_TRUE(acks(recorder).empty());
}

TEST(CausalSites, GrequestCompleteAtGatesWaitersBeforeAndAfterTheSet) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  mpi::Request req = mpi::Request::grequest(engine);
  engine.spawn("early", [&] { req.wait(); });
  // Both waiters block before the completion at 5 ms, one from the start
  // and one after a delay; each is gated by the same emission.
  engine.spawn("completer", [&] {
    engine.delay(milliseconds(5));
    req.complete();
  });
  engine.spawn("late", [&] {
    engine.delay(milliseconds(2));
    req.wait();
  });
  engine.run();
  EXPECT_EQ(acks(recorder),
            (Edges{"grequest p1@5000000+0 -> p0@5000000",
                   "grequest p1@5000000+0 -> p2@5000000"}));
}

TEST(CausalSites, SyncThreadIdleDrainIsGatedByTheEnqueue) {
  sim::Engine engine;
  net::Fabric fabric(3, net::FabricParams{});
  pfs::PfsParams pfs_params;
  pfs_params.data_servers = 1;
  pfs_params.target.jitter_sigma = 0.0;
  pfs::Pfs pfs(engine, fabric, {1}, 2, pfs_params, 11);
  lfs::LfsParams lfs_params;
  lfs_params.device.jitter_sigma = 0.0;
  lfs_params.capacity = 64 * MiB;
  lfs::LocalFs local_fs(engine, 0, lfs_params, 12);
  CausalRecorder recorder(engine);
  engine.spawn("rank", [&] {
    pfs::OpenOptions opts;
    opts.create = true;
    const auto global = pfs.open("/pfs/global", 0, opts).value();
    const auto cache = local_fs.open("/scratch/c0", /*create=*/true).value();
    ASSERT_TRUE(local_fs.write(cache, 0, DataView::synthetic(7, 0, 64 * KiB)));
    cache::SyncThread sync(engine, local_fs, cache, pfs, global,
                           "/pfs/global", cache::FlushSchedulerParams{},
                           nullptr);
    sync.start();
    engine.delay(milliseconds(1));
    cache::SyncRequest request;
    request.global = Extent{0, 64 * KiB};
    request.grequest = mpi::Request::grequest(engine);
    mpi::Request done = request.grequest;
    sync.enqueue(std::move(request));
    done.wait();
    sync.shutdown_and_join();
  });
  engine.run();
  EXPECT_EQ(acks(recorder),
            (Edges{"sync_queue p0@1537965+0 -> p1@1537965",
                   "grequest p1@5956759+0 -> p0@5956759"}));
}

TEST(CausalSites, LockTableWaitsAckTheReleaseThatLetThemThrough) {
  sim::Engine engine;
  cache::LockTable table(engine);
  CausalRecorder recorder(engine);
  engine.spawn("holder", [&] {
    table.lock("/f", {0, 100});
    engine.delay(milliseconds(5));
    table.unlock("/f", {0, 100});
  });
  engine.spawn("locker", [&] {
    engine.delay(milliseconds(1));
    table.lock("/f", {50, 100});
    engine.delay(milliseconds(2));
    table.unlock("/f", {50, 100});
  });
  engine.spawn("reader", [&] {
    engine.delay(milliseconds(1));
    table.wait_unlocked("/f", {90, 20});
  });
  engine.run();
  // The holder's release wakes both; the reader re-blocks behind the
  // locker and acks the locker's release instead.
  EXPECT_EQ(acks(recorder),
            (Edges{"lock_wait p0@5000000+0 -> p1@5000000",
                   "lock_wait p1@7000000+0 -> p2@7000000"}));
}

TEST(CausalSites, JoinAcksTheFinishOnlyWhenItWaited) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  auto slow = engine.spawn("slow", [&] { engine.delay(milliseconds(5)); });
  auto fast = engine.spawn("fast", [&] { engine.delay(milliseconds(1)); });
  engine.spawn("joiner", [&] {
    engine.delay(milliseconds(2));
    slow.join();
    fast.join();
  });
  engine.run();
  // Joining the already-finished `fast` does not move the clock: no ack.
  EXPECT_EQ(emissions(recorder),
            (Edges{"process p1@1000000",
                   "process p0@5000000",
                   "process p2@5000000"}));
  EXPECT_EQ(acks(recorder),
            (Edges{"process p0@5000000+0 -> p2@5000000"}));
}

}  // namespace
}  // namespace e10::obs
