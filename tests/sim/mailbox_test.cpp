#include "sim/mailbox.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"

namespace e10::sim {
namespace {

using namespace e10::units;

TEST(Mailbox, SendThenRecv) {
  Engine eng;
  Mailbox<int> box(eng);
  int got = 0;
  eng.spawn("sender", [&] { box.send(42); });
  eng.spawn("receiver", [&] { got = box.recv(); });
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, RecvBlocksUntilSend) {
  Engine eng;
  Mailbox<int> box(eng);
  Time recv_time = -1;
  eng.spawn("receiver", [&] {
    (void)box.recv();
    recv_time = eng.now();
  });
  eng.spawn("sender", [&] {
    eng.delay(seconds(2));
    box.send(1);
  });
  eng.run();
  EXPECT_EQ(recv_time, seconds(2));
}

TEST(Mailbox, FifoOrder) {
  Engine eng;
  Mailbox<int> box(eng);
  std::vector<int> got;
  eng.spawn("sender", [&] {
    for (int i = 0; i < 5; ++i) box.send(i);
  });
  eng.spawn("receiver", [&] {
    for (int i = 0; i < 5; ++i) got.push_back(box.recv());
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, TryRecvEmpty) {
  Engine eng;
  Mailbox<int> box(eng);
  eng.spawn("p", [&] {
    EXPECT_FALSE(box.try_recv().has_value());
    box.send(9);
    const auto v = box.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9);
  });
  eng.run();
}

TEST(Mailbox, MultipleReceiversEachGetOne) {
  Engine eng;
  Mailbox<int> box(eng);
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("r" + std::to_string(i), [&] { sum += box.recv(); });
  }
  eng.spawn("sender", [&] {
    eng.delay(milliseconds(1));
    box.send(1);
    box.send(2);
    box.send(4);
  });
  eng.run();
  EXPECT_EQ(sum, 7);
}

TEST(Mailbox, MoveOnlyPayload) {
  Engine eng;
  Mailbox<std::unique_ptr<int>> box(eng);
  int got = 0;
  eng.spawn("sender", [&] { box.send(std::make_unique<int>(5)); });
  eng.spawn("receiver", [&] { got = *box.recv(); });
  eng.run();
  EXPECT_EQ(got, 5);
}

}  // namespace
}  // namespace e10::sim
