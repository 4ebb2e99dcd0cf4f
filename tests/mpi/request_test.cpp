#include "mpi/request.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "mpi/info.h"

namespace e10::mpi {
namespace {

using namespace e10::units;

TEST(Request, InvalidRequestThrows) {
  Request r;
  EXPECT_FALSE(r.valid());
  EXPECT_THROW(r.wait(), std::logic_error);
  EXPECT_THROW((void)r.test(), std::logic_error);
  EXPECT_THROW((void)r.packet(), std::logic_error);
}

TEST(Request, GrequestCompleteWakesWaiter) {
  sim::Engine engine;
  Request grequest;
  Time woke = -1;
  engine.spawn("completer", [&] {
    grequest = Request::grequest(engine);
    engine.delay(seconds(1));
    grequest.complete();
  });
  engine.spawn("waiter", [&] {
    engine.delay(milliseconds(1));  // let the completer create it
    ASSERT_TRUE(grequest.valid());
    EXPECT_FALSE(grequest.test());
    grequest.wait();
    woke = engine.now();
  });
  engine.run();
  EXPECT_EQ(woke, seconds(1));
}

TEST(Request, WaitAllAdvancesToMax) {
  sim::Engine engine;
  std::vector<Request> reqs;
  for (int i = 0; i < 3; ++i) reqs.push_back(Request::grequest(engine));
  Time done = -1;
  engine.spawn("completer", [&] {
    for (Request& r : reqs) {
      engine.delay(seconds(1));
      r.complete();
    }
  });
  engine.spawn("owner", [&] {
    Request::wait_all(reqs);
    done = engine.now();
  });
  engine.run();
  EXPECT_EQ(done, seconds(3));
}

TEST(Request, WaitAllSkipsInvalidEntries) {
  sim::Engine engine;
  std::vector<Request> reqs(3);  // all invalid
  reqs.push_back(Request::grequest(engine));
  Time done = -1;
  engine.spawn("completer", [&] {
    engine.delay(seconds(2));
    reqs.back().complete();
  });
  engine.spawn("owner", [&] {
    Request::wait_all(reqs);
    done = engine.now();
  });
  engine.run();
  EXPECT_EQ(done, seconds(2));
}

TEST(Info, SetGetMerge) {
  Info a;
  a.set("cb_nodes", "16");
  a.set("e10_cache", "enable");
  EXPECT_EQ(a.get_or("cb_nodes", ""), "16");
  EXPECT_FALSE(a.get("missing").has_value());
  EXPECT_EQ(a.get_or("missing", "dflt"), "dflt");
  EXPECT_TRUE(a.has("e10_cache"));

  Info b;
  b.set("cb_nodes", "64");
  b.set("cb_buffer_size", "16777216");
  a.merge(b);
  EXPECT_EQ(a.get_or("cb_nodes", ""), "64");
  EXPECT_EQ(a.size(), 3u);

  a.erase("e10_cache");
  EXPECT_FALSE(a.has("e10_cache"));
  EXPECT_EQ(a.keys().size(), 2u);
}

}  // namespace
}  // namespace e10::mpi
