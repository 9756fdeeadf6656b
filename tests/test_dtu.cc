/**
 * @file
 * Unit tests for the DTU: endpoint configuration, message passing,
 * credits, ringbuffers, replies, RDMA memory access and the privilege
 * machinery for NoC-level isolation (Sec. 4.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "pe/platform.hh"

namespace m3
{
namespace
{

/** A small bare platform: 3 PEs + DRAM, DTUs still privileged. */
struct BareSystem
{
    BareSystem() : platform(sim, PlatformSpec::generalPurpose(3)) {}

    Simulator sim;
    Platform platform;

    Dtu &dtu(peid_t p) { return platform.pe(p).dtu(); }
    Spm &spm(peid_t p) { return platform.pe(p).spm(); }
};

/** Configure a standard recv EP with @p slots slots of @p slotSize. */
RecvEpCfg
ringCfg(Spm &spm, uint32_t slots, uint32_t slotSize, bool replies = true)
{
    RecvEpCfg cfg;
    cfg.bufAddr = spm.alloc(slots * slotSize);
    cfg.slotCount = slots;
    cfg.slotSize = slotSize;
    cfg.replyProtected = replies;
    return cfg;
}

SendEpCfg
sendCfg(uint32_t targetNode, epid_t targetEp, label_t label,
        uint32_t credits, uint32_t maxMsg)
{
    SendEpCfg cfg;
    cfg.targetNode = targetNode;
    cfg.targetEp = targetEp;
    cfg.label = label;
    cfg.credits = credits;
    cfg.maxMsgSize = maxMsg;
    return cfg;
}

TEST(Dtu, MessageDelivery)
{
    BareSystem s;
    bool received = false;

    ASSERT_EQ(s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128)),
              Error::None);
    ASSERT_EQ(s.dtu(0).configSend(
                  2, sendCfg(1, 2, 0xdead, CREDITS_UNLIMITED, 128)),
              Error::None);

    s.sim.run("recv", [&] {
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);
        ASSERT_GE(slot, 0);
        MessageHeader hdr = s.dtu(1).msgHeader(2, slot);
        EXPECT_EQ(hdr.label, 0xdeadu);
        EXPECT_EQ(hdr.length, 16u);
        EXPECT_EQ(hdr.senderNode, 0u);
        char payload[16];
        s.spm(1).read(s.dtu(1).msgAddr(2, slot) + sizeof(MessageHeader),
                      payload, 16);
        EXPECT_EQ(std::memcmp(payload, "hello, dtu-world", 16), 0);
        s.dtu(1).ackMsg(2, slot);
        received = true;
    });
    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(16);
        s.spm(0).write(msg, "hello, dtu-world", 16);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 16), Error::None);
        s.dtu(0).waitUntilIdle();
    });
    s.sim.simulate();
    EXPECT_TRUE(received);
    EXPECT_EQ(s.dtu(0).stats().msgsSent, 1u);
    EXPECT_EQ(s.dtu(1).stats().msgsReceived, 1u);
}

TEST(Dtu, CreditsLimitInFlightMessages)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 1, /*credits=*/1, 128));
    s.dtu(0).configRecv(3, ringCfg(s.spm(0), 2, 128, false));

    s.sim.run("test", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0x11), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(s.dtu(0).credits(2), 0u);
        // No credits left: the DTU denies the send (Sec. 4.4.3).
        EXPECT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0x12),
                  Error::NoCredits);
        EXPECT_EQ(s.dtu(0).stats().creditDenials, 1u);

        // The receiver replies; the reply refunds the credit.
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);
        spmaddr_t rep = s.spm(1).alloc(8);
        ASSERT_EQ(s.dtu(1).startReply(2, slot, rep, 8), Error::None);
        s.dtu(1).waitUntilIdle();

        s.dtu(0).waitForMsg(3);
        EXPECT_EQ(s.dtu(0).credits(2), 1u);
        int rslot = s.dtu(0).fetchMsg(3);
        MessageHeader hdr = s.dtu(0).msgHeader(3, rslot);
        EXPECT_TRUE(hdr.isReply());
        EXPECT_EQ(hdr.label, 0x11u);
        EXPECT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0x13), Error::None);
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

TEST(Dtu, SendWithBadReplyEpKeepsItsCredit)
{
    // A send refused because its reply EP is not a receive EP never
    // left the DTU, so it must not consume the send EP's credit.
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 1, /*credits=*/1, 128));

    s.sim.run("test", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        EXPECT_EQ(s.dtu(0).startSend(2, msg, 8, /*replyEp=*/5, 0),
                  Error::InvalidEp);
        EXPECT_EQ(s.dtu(0).credits(2), 1u);
        EXPECT_EQ(s.dtu(0).stats().creditDenials, 0u);
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

TEST(Dtu, ReplyRequiresProtectedRing)
{
    BareSystem s;
    // Ring NOT vouched read-only by a kernel: replies must be refused.
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128, /*replies=*/false));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 128));

    s.sim.run("test", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        s.dtu(0).startSend(2, msg, 8, 3, 0);
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);
        spmaddr_t rep = s.spm(1).alloc(8);
        EXPECT_EQ(s.dtu(1).startReply(2, slot, rep, 8), Error::NoPerm);
    });
    s.sim.simulate();
}

TEST(Dtu, RingWrapAroundManyMessages)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 64));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 64));

    int got = 0;
    s.sim.run("recv", [&] {
        for (int i = 0; i < 12; ++i) {
            s.dtu(1).waitForMsg(2);
            int slot = s.dtu(1).fetchMsg(2);
            ASSERT_GE(slot, 0);
            uint64_t v;
            s.spm(1).read(
                s.dtu(1).msgAddr(2, slot) + sizeof(MessageHeader), &v, 8);
            EXPECT_EQ(v, static_cast<uint64_t>(got));
            s.dtu(1).ackMsg(2, slot);
            ++got;
        }
    });
    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        for (uint64_t i = 0; i < 12; ++i) {
            uint64_t v = i;
            s.spm(0).write(msg, &v, 8);
            // Wait until the DTU accepted it (ring may be full).
            for (;;) {
                Error e = s.dtu(0).startSend(2, msg, 8);
                if (e == Error::None)
                    break;
                Fiber::current()->sleep(100);
            }
            s.dtu(0).waitUntilIdle();
            Fiber::current()->sleep(50);
        }
    });
    s.sim.simulate();
    EXPECT_EQ(got, 12);
}

TEST(Dtu, OversizedMessagesRejected)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 2, 64));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 64));
    s.sim.run("t", [&] {
        spmaddr_t msg = s.spm(0).alloc(128);
        EXPECT_EQ(s.dtu(0).startSend(2, msg, 64), Error::MsgTooBig);
    });
    s.sim.simulate();
}

TEST(Dtu, FullRingDropsMessages)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 2, 64));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 64));
    s.sim.run("t", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(s.dtu(0).startSend(2, msg, 8), Error::None);
            s.dtu(0).waitUntilIdle();
        }
        Fiber::current()->sleep(1000);
    });
    s.sim.simulate();
    EXPECT_EQ(s.dtu(1).stats().msgsDropped, 2u);
    EXPECT_EQ(s.dtu(1).stats().msgsReceived, 2u);
}

TEST(Dtu, DramReadWrite)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0x1000;
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);

    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(4096);
        std::vector<uint8_t> pattern(4096);
        for (size_t i = 0; i < pattern.size(); ++i)
            pattern[i] = static_cast<uint8_t>(i * 7);
        s.spm(0).write(buf, pattern.data(), pattern.size());

        ASSERT_EQ(s.dtu(0).startWrite(4, buf, 0x100, 4096), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(s.dtu(0).lastError(), Error::None);

        // Functional check straight in the DRAM.
        EXPECT_EQ(std::memcmp(
                      s.platform.dram().inspect(0x1000 + 0x100, 4096),
                      pattern.data(), 4096),
                  0);

        // Read it back into a different SPM location.
        spmaddr_t buf2 = s.spm(0).alloc(4096);
        ASSERT_EQ(s.dtu(0).startRead(4, buf2, 0x100, 4096), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(std::memcmp(s.spm(0).ptr(buf2, 4096), pattern.data(),
                              4096),
                  0);
    });
    s.sim.simulate();
    EXPECT_EQ(s.dtu(0).stats().bytesWritten, 4096u);
    EXPECT_EQ(s.dtu(0).stats().bytesRead, 4096u);
}

TEST(Dtu, MemoryBoundsAndPerms)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0;
    mem.size = 1024;
    mem.perms = MEM_R;
    s.dtu(0).configMem(4, mem);

    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(2048);
        EXPECT_EQ(s.dtu(0).startRead(4, buf, 512, 1024),
                  Error::OutOfBounds);
        EXPECT_EQ(s.dtu(0).startWrite(4, buf, 0, 16), Error::NoPerm);
        EXPECT_EQ(s.dtu(0).startRead(4, buf, 0, 1024), Error::None);
        s.dtu(0).waitUntilIdle();
    });
    s.sim.simulate();
}

TEST(Dtu, RemoteSpmAsMemoryTarget)
{
    BareSystem s;
    // Application loading writes into another PE's SPM (Sec. 4.5.5).
    MemEpCfg mem;
    mem.targetNode = 1;  // PE1's node
    mem.offset = 8192;
    mem.size = 16 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);

    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(64);
        s.spm(0).write(buf, "remote-spm-write-payload-0123456789abcdef"
                            "0123456789abcdefxxxxxx",
                       64);
        ASSERT_EQ(s.dtu(0).startWrite(4, buf, 0, 64), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(std::memcmp(s.spm(1).ptr(8192, 24),
                              "remote-spm-write-payload", 24),
                  0);
    });
    s.sim.simulate();
}

TEST(Dtu, ZeroFillsMemory)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0;
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);

    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(256);
        std::vector<uint8_t> ones(256, 0xff);
        s.spm(0).write(buf, ones.data(), 256);
        s.dtu(0).startWrite(4, buf, 0, 256);
        s.dtu(0).waitUntilIdle();
        ASSERT_EQ(s.dtu(0).startZero(4, 0, 256), Error::None);
        Fiber::current()->sleep(1000);
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(s.platform.dram().inspect(0, 256)[i], 0);
    });
    s.sim.simulate();
}

TEST(Dtu, DowngradeRemovesLocalConfigRights)
{
    BareSystem s;
    s.sim.run("t", [&] {
        ASSERT_TRUE(s.dtu(1).isPrivileged());
        s.dtu(0).extDowngrade(1);
        Fiber::current()->sleep(100);
        EXPECT_FALSE(s.dtu(1).isPrivileged());

        // Local configuration on PE1 is now refused...
        RecvEpCfg cfg = ringCfg(s.spm(1), 2, 64);
        EXPECT_EQ(s.dtu(1).configRecv(2, cfg), Error::NotPrivileged);
        // ...and PE1 cannot issue external requests either.
        EXPECT_EQ(s.dtu(1).extDowngrade(0), Error::NotPrivileged);

        // But the kernel DTU can still configure PE1 remotely.
        bool acked = false;
        Error result = Error::None;
        s.dtu(0).extConfigRecv(1, 2, cfg, [&](Error e) {
            acked = true;
            result = e;
        });
        Fiber::current()->sleep(200);
        EXPECT_TRUE(acked);
        EXPECT_EQ(result, Error::None);
        EXPECT_EQ(s.dtu(1).ep(2).type, EpType::Receive);
    });
    s.sim.simulate();
}

TEST(Dtu, ExtStartInvokesHook)
{
    BareSystem s;
    bool started = false;
    s.dtu(1).setStartHook([&] { started = true; });
    s.sim.run("t", [&] {
        s.dtu(0).extStart(1);
        Fiber::current()->sleep(100);
    });
    s.sim.simulate();
    EXPECT_TRUE(started);
}

TEST(Dtu, ResetClearsEndpoints)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 2, 64));
    s.sim.run("t", [&] {
        s.dtu(0).extReset(1);
        Fiber::current()->sleep(100);
        EXPECT_EQ(s.dtu(1).ep(2).type, EpType::Invalid);
    });
    s.sim.simulate();
}

TEST(Dtu, TransferTimingMatchesBandwidth)
{
    BareSystem s;
    const HwCosts &hw = s.platform.costs().hw;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0;
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);

    Cycles dur4k = 0, dur8k = 0;
    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(8192);
        Cycles t0 = s.sim.curCycle();
        s.dtu(0).startRead(4, buf, 0, 4096);
        s.dtu(0).waitUntilIdle();
        dur4k = s.sim.curCycle() - t0;
        t0 = s.sim.curCycle();
        s.dtu(0).startRead(4, buf, 0, 8192);
        s.dtu(0).waitUntilIdle();
        dur8k = s.sim.curCycle() - t0;
    });
    s.sim.simulate();
    // Doubling the payload adds its serialisation at 8 B/cycle.
    EXPECT_EQ(dur8k - dur4k, 4096 / hw.nocBytesPerCycle);
    // 4 KiB takes roughly 512 cycles + latencies.
    EXPECT_GT(dur4k, 4096 / hw.nocBytesPerCycle);
    EXPECT_LT(dur4k, 4096 / hw.nocBytesPerCycle + 100);
}

TEST(Dtu, StaleRepliesAreDroppedAfterReset)
{
    // The PE-reuse hazard: a reply addressed to the previous owner of a
    // PE must not leak into the new owner's ringbuffers (generation
    // tagging, cf. Sec. 3's NoC-level isolation).
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 7, 4, 128));
    s.dtu(0).configRecv(3, ringCfg(s.spm(0), 4, 128, false));

    s.sim.run("t", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0), Error::None);
        s.dtu(0).waitUntilIdle();
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);

        // PE0 is reclaimed and handed to a new VPE before the reply.
        s.dtu(2).extReset(0);
        Fiber::current()->sleep(100);
        RecvEpCfg fresh = ringCfg(s.spm(0), 4, 128, false);
        s.dtu(2).extConfigRecv(0, 3, fresh);
        Fiber::current()->sleep(100);

        // The receiver replies to the (now dead) sender.
        spmaddr_t rep = s.spm(1).alloc(8);
        ASSERT_EQ(s.dtu(1).startReply(2, slot, rep, 8), Error::None);
        s.dtu(1).waitUntilIdle();
        Fiber::current()->sleep(200);

        // The new owner's ring must be untouched; the reply is dropped.
        EXPECT_FALSE(s.dtu(0).hasMsg(3));
        EXPECT_GE(s.dtu(0).stats().msgsDropped, 1u);
    });
    s.sim.simulate();
}

TEST(Dtu, RepliesWithinOneGenerationStillWork)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 7, 4, 128));
    s.dtu(0).configRecv(3, ringCfg(s.spm(0), 4, 128, false));

    s.sim.run("t", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        s.dtu(0).startSend(2, msg, 8, 3, 0x42);
        s.dtu(0).waitUntilIdle();
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);
        spmaddr_t rep = s.spm(1).alloc(8);
        s.dtu(1).startReply(2, slot, rep, 8);
        s.dtu(1).waitUntilIdle();
        s.dtu(0).waitForMsg(3);
        int rslot = s.dtu(0).fetchMsg(3);
        EXPECT_EQ(s.dtu(0).msgHeader(3, rslot).label, 0x42u);
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

TEST(Dtu, FetchOrderIsFifo)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 8, 64));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 64));
    s.sim.run("t", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        for (uint64_t i = 0; i < 5; ++i) {
            s.spm(0).write(msg, &i, 8);
            s.dtu(0).startSend(2, msg, 8);
            s.dtu(0).waitUntilIdle();
            Fiber::current()->sleep(50);
        }
        Fiber::current()->sleep(500);
        for (uint64_t i = 0; i < 5; ++i) {
            int slot = s.dtu(1).fetchMsg(2);
            ASSERT_GE(slot, 0);
            uint64_t v = 0;
            s.spm(1).read(
                s.dtu(1).msgAddr(2, slot) + sizeof(MessageHeader), &v,
                8);
            EXPECT_EQ(v, i);
            s.dtu(1).ackMsg(2, slot);
        }
        EXPECT_EQ(s.dtu(1).fetchMsg(2), -1);
    });
    s.sim.simulate();
}

TEST(Dtu, AckWithoutFetchIsRejected)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 64));
    s.sim.run("t", [&] {
        EXPECT_EQ(s.dtu(1).ackMsg(2, 0), Error::InvalidArgs);
        EXPECT_EQ(s.dtu(1).ackMsg(2, 99), Error::InvalidArgs);
    });
    s.sim.simulate();
}

/**
 * The event engine stores callbacks inline up to SmallFn::InlineCapacity;
 * oversized captures fall back to a heap allocation. The DTU/NoC/fiber
 * hot paths are sized to fit — exercise send, reply, RDMA read and write
 * end to end and require that not a single callback spilled.
 */
TEST(Dtu, CoreDtuPathsNeverFallBackToHeapCallbacks)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0x77, CREDITS_UNLIMITED, 128));
    s.dtu(0).configRecv(3, ringCfg(s.spm(0), 2, 128, false));
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0;
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);

    s.sim.run("recv", [&] {
        s.dtu(1).waitForMsg(2);
        int slot = s.dtu(1).fetchMsg(2);
        ASSERT_GE(slot, 0);
        spmaddr_t rep = s.spm(1).alloc(32);
        ASSERT_EQ(s.dtu(1).startReply(2, slot, rep, 32), Error::None);
        s.dtu(1).waitUntilIdle();
    });
    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(64);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 64, 3, 0x1), Error::None);
        s.dtu(0).waitUntilIdle();
        s.dtu(0).waitForMsg(3);
        s.dtu(0).ackMsg(3, s.dtu(0).fetchMsg(3));

        spmaddr_t buf = s.spm(0).alloc(4096);
        ASSERT_EQ(s.dtu(0).startWrite(4, buf, 0, 4096), Error::None);
        s.dtu(0).waitUntilIdle();
        ASSERT_EQ(s.dtu(0).startRead(4, buf, 0, 4096), Error::None);
        s.dtu(0).waitUntilIdle();
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
    EXPECT_GT(s.sim.queue().stats().eventsExecuted, 0u);
    EXPECT_EQ(s.sim.queue().stats().callbackHeapFallbacks, 0u);
}

TEST(Dtu, SingleCommandAtATime)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.offset = 0;
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);
    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(4096);
        ASSERT_EQ(s.dtu(0).startRead(4, buf, 0, 4096), Error::None);
        EXPECT_TRUE(s.dtu(0).isBusy());
        EXPECT_EQ(s.dtu(0).startRead(4, buf, 0, 64), Error::DtuBusy);
        s.dtu(0).waitUntilIdle();
        EXPECT_FALSE(s.dtu(0).isBusy());
    });
    s.sim.simulate();
}

TEST(Dtu, TimedWaitUntilIdleLeavesCommandInFlight)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(0).configMem(4, mem);
    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(0).alloc(4096);
        ASSERT_EQ(s.dtu(0).startRead(4, buf, 0, 4096), Error::None);
        Cycles t0 = s.sim.curCycle();
        EXPECT_EQ(s.dtu(0).waitUntilIdle(10), Error::Timeout);
        EXPECT_EQ(s.sim.curCycle() - t0, 10u);
        // The timeout gives up the wait, not the command.
        EXPECT_TRUE(s.dtu(0).isBusy());
        EXPECT_EQ(s.dtu(0).startRead(4, buf, 0, 64), Error::DtuBusy);
        EXPECT_EQ(s.dtu(0).waitUntilIdle(), Error::None);
        EXPECT_FALSE(s.dtu(0).isBusy());
        EXPECT_EQ(s.dtu(0).lastError(), Error::None);
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

TEST(Dtu, WaitForMsgsWakesOnAnyEpAndTimesOut)
{
    BareSystem s;
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 2, 64));
    s.dtu(1).configRecv(3, ringCfg(s.spm(1), 2, 64));
    s.dtu(0).configSend(2, sendCfg(1, 3, 0x33, CREDITS_UNLIMITED, 64));

    Cycles woke = 0;
    s.sim.run("recv", [&] {
        Cycles t0 = s.sim.curCycle();
        EXPECT_EQ(s.dtu(1).waitForMsgs({2, 3}, 100), Error::Timeout);
        EXPECT_EQ(s.sim.curCycle() - t0, 100u);
        EXPECT_EQ(s.dtu(1).waitForMsgs({2, 3}), Error::None);
        woke = s.sim.curCycle();
        EXPECT_FALSE(s.dtu(1).hasMsg(2));
        EXPECT_TRUE(s.dtu(1).hasMsg(3));
        // A pending message satisfies a timed wait at once.
        t0 = s.sim.curCycle();
        EXPECT_EQ(s.dtu(1).waitForMsgs({2, 3}, 100), Error::None);
        EXPECT_EQ(s.sim.curCycle(), t0);
    });
    s.sim.run("send", [&] {
        Fiber::current()->sleep(500);
        spmaddr_t msg = s.spm(0).alloc(8);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 8), Error::None);
        s.dtu(0).waitUntilIdle();
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
    EXPECT_GT(woke, 500u);
}

TEST(Dtu, ParallelSlotsCheckEachCommand)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.size = 1024;
    mem.perms = MEM_R;
    s.dtu(0).configMem(4, mem);
    s.sim.run("t", [&] {
        Dtu &d = s.dtu(0);
        spmaddr_t buf = s.spm(0).alloc(2048);
        EXPECT_EQ(d.startReadX(Dtu::XFER_SLOTS, 4, buf, 0, 64),
                  Error::InvalidArgs);
        EXPECT_EQ(d.startWriteX(Dtu::XFER_SLOTS, 4, buf, 0, 64),
                  Error::InvalidArgs);
        EXPECT_EQ(d.startWriteX(0, 4, buf, 0, 16), Error::NoPerm);
        EXPECT_EQ(d.startReadX(0, 4, buf, 512, 1024), Error::OutOfBounds);
        EXPECT_FALSE(d.xferBusy(0));

        ASSERT_EQ(d.startReadX(0, 4, buf, 0, 64), Error::None);
        EXPECT_TRUE(d.xferBusy(0));
        EXPECT_EQ(d.startReadX(0, 4, buf, 0, 64), Error::DtuBusy);
        // The other slots and the command registers stay free.
        EXPECT_FALSE(d.xferBusy(1));
        EXPECT_FALSE(d.isBusy());
        EXPECT_EQ(d.startReadX(1, 4, buf + 1024, 0, 64), Error::None);
        EXPECT_EQ(d.waitXferAll(), Error::None);
        EXPECT_FALSE(d.xferBusy(0));
        EXPECT_FALSE(d.xferBusy(1));
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
    EXPECT_EQ(s.dtu(0).stats().memReads, 2u);
}

TEST(Dtu, ParallelSlotsOverlapAcrossMemories)
{
    // Slot 0 reads the DRAM, slot 1 another PE's SPM: together they
    // complete with the slower one, not after the sum of both.
    BareSystem s;
    MemEpCfg dram;
    dram.targetNode = s.platform.dramNode();
    dram.size = 64 * KiB;
    dram.perms = MEM_RW;
    s.dtu(0).configMem(4, dram);
    MemEpCfg remote;
    remote.targetNode = 1;
    remote.offset = 8192;
    remote.size = 16 * KiB;
    remote.perms = MEM_RW;
    s.dtu(0).configMem(5, remote);

    Cycles alone0 = 0, alone1 = 0, both = 0;
    s.sim.run("t", [&] {
        Dtu &d = s.dtu(0);
        spmaddr_t a = s.spm(0).alloc(256);
        spmaddr_t b = s.spm(0).alloc(256);
        auto timed = [&](auto issue) {
            Cycles t0 = s.sim.curCycle();
            issue();
            EXPECT_EQ(d.waitXferAll(), Error::None);
            return s.sim.curCycle() - t0;
        };
        alone0 = timed([&] { d.startReadX(0, 4, a, 0, 256); });
        alone1 = timed([&] { d.startReadX(1, 5, b, 0, 256); });
        both = timed([&] {
            d.startReadX(0, 4, a, 0, 256);
            d.startReadX(1, 5, b, 0, 256);
        });
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
    EXPECT_GE(both, std::max(alone0, alone1));
    EXPECT_LT(both, alone0 + alone1);
}

TEST(Dtu, ResetAbortsParallelSlotsAndDropsLateData)
{
    BareSystem s;
    MemEpCfg mem;
    mem.targetNode = s.platform.dramNode();
    mem.size = 64 * KiB;
    mem.perms = MEM_RW;
    s.dtu(1).configMem(4, mem);
    std::vector<uint8_t> ones(4096, 0xff);
    s.platform.dram().write(0, ones.data(), ones.size());

    s.sim.run("t", [&] {
        spmaddr_t buf = s.spm(1).alloc(4096);
        ASSERT_EQ(s.dtu(1).startReadX(0, 4, buf, 0, 4096), Error::None);
        ASSERT_EQ(s.dtu(1).startReadX(1, 4, buf, 0, 4096), Error::None);
        // The reset arrives long before the data.
        s.dtu(0).extReset(1);
        EXPECT_EQ(s.dtu(1).waitXferAll(), Error::Aborted);
        EXPECT_FALSE(s.dtu(1).xferBusy(0));
        EXPECT_FALSE(s.dtu(1).xferBusy(1));
        // Let the late data responses arrive: they must not reach the
        // SPM, which the PE's next owner may already use.
        Fiber::current()->sleep(5000);
        const uint8_t *spm = s.spm(1).ptr(buf, 4096);
        for (size_t i = 0; i < 4096; ++i)
            ASSERT_EQ(spm[i], 0) << "byte " << i;
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

} // anonymous namespace
} // namespace m3
