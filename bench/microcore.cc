/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * event-queue throughput, fiber wakeups (in place and fiber to fiber),
 * NoC packet routing, the DTU message path and the file-content
 * generator. These measure host wall-clock performance (how fast the
 * simulation runs), not simulated cycles.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/random.hh"
#include "pe/platform.hh"

namespace m3
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Cycles>(i % 97), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** One fiber alone: each sleep's wakeup is the next event, so the
 *  fiber takes it and resumes in place, with no context switch. */
void
BM_FiberSleepInPlace(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        sim.run("sleeper", [] {
            for (int i = 0; i < 1000; ++i)
                Fiber::current()->sleep(1);
        });
        sim.simulate();
    }
    state.SetItemsProcessed(state.iterations() * 1000);  // 1 per sleep
}
BENCHMARK(BM_FiberSleepInPlace);

/** 64 fibers sleeping one cycle each in turn: every wakeup belongs to
 *  another fiber, so each one is a fiber-to-fiber switch. */
void
BM_FiberRoundRobin(benchmark::State &state)
{
    constexpr int fibers = 64;
    constexpr int sleeps = 100;
    for (auto _ : state) {
        Simulator sim;
        for (int f = 0; f < fibers; ++f) {
            sim.run(std::string("f").append(std::to_string(f)), [] {
                for (int i = 0; i < sleeps; ++i)
                    Fiber::current()->sleep(1);
            });
        }
        sim.simulate();
    }
    state.SetItemsProcessed(state.iterations() * fibers * sleeps);
}
BENCHMARK(BM_FiberRoundRobin);

void
BM_NocSend(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        HwCosts hw;
        Noc noc(eq, hw, 4, 4);
        int delivered = 0;
        for (int i = 0; i < 1000; ++i)
            noc.send(static_cast<nocid_t>(i % 16),
                     static_cast<nocid_t>((i * 7) % 16), 64,
                     [&delivered] { ++delivered; });
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NocSend);

void
BM_DtuMessageRoundTrip(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        Platform platform(sim, PlatformSpec::generalPurpose(2));
        Dtu &tx = platform.pe(0).dtu();
        Dtu &rx = platform.pe(1).dtu();
        RecvEpCfg ring;
        ring.bufAddr = platform.pe(1).spm().alloc(4 * 128);
        ring.slotCount = 4;
        ring.slotSize = 128;
        ring.replyProtected = true;
        rx.configRecv(2, ring);
        SendEpCfg send;
        send.targetNode = 1;
        send.targetEp = 2;
        send.credits = CREDITS_UNLIMITED;
        send.maxMsgSize = 128;
        tx.configSend(2, send);
        spmaddr_t msg = platform.pe(0).spm().alloc(64);
        state.ResumeTiming();

        sim.run("rx", [&] {
            for (int i = 0; i < 200; ++i) {
                rx.waitForMsg(2);
                int slot = rx.fetchMsg(2);
                rx.ackMsg(2, static_cast<uint32_t>(slot));
            }
        });
        sim.run("tx", [&] {
            for (int i = 0; i < 200; ++i) {
                while (tx.startSend(2, msg, 64) != Error::None)
                    Fiber::current()->sleep(10);
                tx.waitUntilIdle();
            }
        });
        sim.simulate();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_DtuMessageRoundTrip);

void
BM_DtuBulkTransfer(benchmark::State &state)
{
    const size_t bytes = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        Platform platform(sim, PlatformSpec::generalPurpose(1));
        Dtu &dtu = platform.pe(0).dtu();
        MemEpCfg mem;
        mem.targetNode = platform.dramNode();
        mem.offset = 0;
        mem.size = 16 * MiB;
        mem.perms = MEM_RW;
        dtu.configMem(2, mem);
        spmaddr_t buf = platform.pe(0).spm().alloc(16 * KiB);
        state.ResumeTiming();

        sim.run("xfer", [&] {
            size_t done = 0;
            while (done < bytes) {
                size_t chunk = std::min<size_t>(16 * KiB, bytes - done);
                dtu.startRead(2, buf, done, chunk);
                dtu.waitUntilIdle();
                done += chunk;
            }
        });
        sim.simulate();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_DtuBulkTransfer)->Arg(64 * 1024)->Arg(1024 * 1024);

void
BM_PatternFill(benchmark::State &state)
{
    const size_t bytes = static_cast<size_t>(state.range(0));
    std::vector<uint8_t> buf(bytes);
    Random rng(99);
    for (auto _ : state) {
        rng.fillLowBytes(buf.data(), bytes);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PatternFill)->Arg(64 * 1024)->Arg(2 * 1024 * 1024);

} // anonymous namespace
} // namespace m3

BENCHMARK_MAIN();
