/**
 * @file
 * Pipe tests (Sec. 4.5.7): both directions, odd sizes, tiny rings,
 * credit backpressure, EOF semantics, data integrity under chunk-size
 * mismatches, and the pipe filesystem's VFS transparency.
 */

#include <gtest/gtest.h>

#include "libm3/m3system.hh"
#include "libm3/pipe.hh"
#include "libm3/pipefs.hh"
#include "libm3/vpe.hh"

namespace m3
{
namespace
{

M3SystemCfg
bareCfg()
{
    M3SystemCfg cfg;
    cfg.appPes = 3;
    cfg.withFs = false;
    return cfg;
}

/** Push a pattern through a push-mode pipe and verify it end to end. */
int
pushRoundTrip(Env &env, size_t total, size_t writeChunk, size_t readChunk,
              size_t ringBytes, uint32_t chunks)
{
    Pipe pipe(env, /*creatorWrites=*/false, ringBytes, chunks);
    VPE child(env, "writer");
    if (child.err() != Error::None)
        return 1;
    if (pipe.delegateTo(child) != Error::None)
        return 2;
    child.run([total, writeChunk, ringBytes, chunks] {
        Env &cenv = Env::cur();
        auto out = pipePeer(cenv, true, PIPE_PEER_SELS, ringBytes,
                            chunks);
        std::vector<uint8_t> buf(writeChunk);
        size_t sent = 0;
        while (sent < total) {
            size_t n = std::min(writeChunk, total - sent);
            for (size_t i = 0; i < n; ++i)
                buf[i] = static_cast<uint8_t>((sent + i) * 31);
            if (out->write(buf.data(), n) != static_cast<ssize_t>(n))
                return 1;
            sent += n;
        }
        return 0;
    });

    auto in = pipe.host();
    std::vector<uint8_t> buf(readChunk);
    size_t got = 0;
    for (;;) {
        ssize_t n = in->read(buf.data(), buf.size());
        if (n < 0)
            return 3;
        if (n == 0)
            break;
        for (ssize_t i = 0; i < n; ++i)
            if (buf[i] != static_cast<uint8_t>((got + i) * 31))
                return 4;
        got += static_cast<size_t>(n);
    }
    if (child.wait() != 0)
        return 5;
    return got == total ? 0 : 6;
}

TEST(Pipe, MismatchedChunkSizesPreserveData)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        // Writer pushes 1000-byte pieces, reader pulls 4096-byte ones.
        return pushRoundTrip(env, 50000, 1000, 4096,
                             Pipe::DEFAULT_RING_BYTES,
                             Pipe::DEFAULT_CHUNKS);
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Pipe, ReaderSmallerThanWriter)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        return pushRoundTrip(env, 30000, 4096, 100,
                             Pipe::DEFAULT_RING_BYTES,
                             Pipe::DEFAULT_CHUNKS);
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Pipe, TinyRingBackpressure)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        // 2 chunks of 512 bytes: the writer constantly waits for acks.
        return pushRoundTrip(env, 20000, 512, 512, 1024, 2);
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    // Backpressure showed up as credit denials at the writer's DTU.
    uint64_t denials = 0;
    for (peid_t p = 0; p < sys.platform().peCount(); ++p)
        denials += sys.platform().pe(p).dtu().stats().creditDenials;
    EXPECT_GT(denials, 0u);
}

TEST(Pipe, SingleChunkRing)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        return pushRoundTrip(env, 8000, 777, 1234, 4096, 1);
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Pipe, EmptyPipeDeliversEofOnly)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Pipe pipe(env, false);
        VPE child(env, "writer");
        if (child.err() != Error::None)
            return 1;
        pipe.delegateTo(child);
        child.run([] {
            Env &cenv = Env::cur();
            auto out = pipePeer(cenv, true);
            (void)out;  // write nothing; destructor sends EOF
            return 0;
        });
        auto in = pipe.host();
        uint8_t b;
        if (in->read(&b, 1) != 0)
            return 2;
        // Reading again after EOF stays at EOF.
        if (in->read(&b, 1) != 0)
            return 3;
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Pipe, PullModeOddSizes)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr size_t TOTAL = 33333;
        Pipe pipe(env, /*creatorWrites=*/true);
        VPE child(env, "reader");
        if (child.err() != Error::None)
            return 1;
        pipe.delegateTo(child);
        child.run([TOTAL] {
            Env &cenv = Env::cur();
            auto in = pipePeer(cenv, false);
            std::vector<uint8_t> buf(911);
            size_t got = 0;
            for (;;) {
                ssize_t n = in->read(buf.data(), buf.size());
                if (n < 0)
                    return 1;
                if (n == 0)
                    break;
                for (ssize_t i = 0; i < n; ++i)
                    if (buf[i] != static_cast<uint8_t>((got + i) * 13))
                        return 2;
                got += static_cast<size_t>(n);
            }
            return got == TOTAL ? 0 : 3;
        });
        {
            auto out = pipe.host();
            std::vector<uint8_t> buf(1531);
            size_t sent = 0;
            while (sent < TOTAL) {
                size_t n = std::min(buf.size(), TOTAL - sent);
                for (size_t i = 0; i < n; ++i)
                    buf[i] = static_cast<uint8_t>((sent + i) * 13);
                if (out->write(buf.data(), n) != static_cast<ssize_t>(n))
                    return 2;
                sent += n;
            }
        }
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Pipe, PipeEndsRejectWrongOperations)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Pipe pipe(env, false);
        VPE child(env, "writer");
        if (child.err() != Error::None)
            return 1;
        pipe.delegateTo(child);
        child.run([] {
            Env &cenv = Env::cur();
            auto out = pipePeer(cenv, true);
            uint8_t b = 1;
            // Writer end cannot read or seek.
            if (out->read(&b, 1) >= 0)
                return 1;
            if (out->seek(0, SeekMode::Set) >= 0)
                return 2;
            out->write(&b, 1);
            return 0;
        });
        auto in = pipe.host();
        uint8_t b;
        if (in->write(&b, 1) >= 0)
            return 2;
        if (in->seek(0, SeekMode::Set) >= 0)
            return 3;
        while (in->read(&b, 1) > 0) {
        }
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

/**
 * Whether @p end, which moves data one way (it writes if @p writes),
 * refuses the other direction with NoPerm and seeking with InvalidArgs,
 * and stats as an empty FileInfo.
 */
bool
refusesOtherDirection(File &end, bool writes)
{
    uint8_t b = 0;
    FileInfo info;
    info.size = 1;
    const ssize_t wrong = writes ? end.read(&b, 1) : end.write(&b, 1);
    return wrong == -static_cast<ssize_t>(Error::NoPerm) &&
           end.seek(0, SeekMode::Set) ==
               -static_cast<ssize_t>(Error::InvalidArgs) &&
           end.stat(info) == Error::None && info.size == 0;
}

TEST(Pipe, EveryEndRefusesTheOtherDirection)
{
    // All four ends: the creator's and the peer's end of a push pipe
    // (the peer writes) and of a pull pipe (the creator writes). Each
    // reader then drains to EOF so both ends shut down cleanly.
    for (bool creatorWrites : {false, true}) {
        M3System sys(bareCfg());
        sys.runRoot("t", [creatorWrites] {
            Env &env = Env::cur();
            Pipe pipe(env, creatorWrites);
            VPE child(env, "peer");
            if (child.err() != Error::None ||
                pipe.delegateTo(child) != Error::None)
                return 1;
            child.run([creatorWrites] {
                auto end = pipePeer(Env::cur(), !creatorWrites);
                if (!refusesOtherDirection(*end, !creatorWrites))
                    return 1;
                uint8_t b = 0;
                while (creatorWrites && end->read(&b, 1) > 0) {
                }
                return 0;
            });
            {
                auto end = pipe.host();
                if (!refusesOtherDirection(*end, creatorWrites))
                    return 2;
                uint8_t b = 0;
                while (!creatorWrites && end->read(&b, 1) > 0) {
                }
            }
            return child.wait();
        });
        ASSERT_TRUE(sys.simulate());
        EXPECT_EQ(sys.rootExitCode(), 0) << "creatorWrites " << creatorWrites;
    }
}

TEST(Pipe, VfsTransparencyThroughPipeFs)
{
    // The paper's pipe filesystem (Sec. 4.5.8): the consuming code uses
    // vfs().open() and never learns it is talking to a pipe.
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        auto pipe = std::make_shared<Pipe>(env, /*creatorWrites=*/false);
        VPE child(env, "writer");
        if (child.err() != Error::None)
            return 1;
        pipe->delegateTo(child);
        child.run([] {
            Env &cenv = Env::cur();
            auto out = pipePeer(cenv, true);
            const char msg[] = "through the vfs";
            out->write(msg, sizeof(msg));
            return 0;
        });

        auto pfs = std::make_shared<PipeFs>();
        pfs->add("/input", [pipe] { return pipe->host(); });
        env.vfs().mount("/pipes", pfs);

        // Generic file code from here on.
        Error e = Error::None;
        auto f = env.vfs().open("/pipes/input", FILE_R, e);
        if (!f)
            return 2;
        char buf[32] = {};
        ssize_t n = f->read(buf, sizeof(buf));
        if (n <= 0)
            return 3;
        if (std::string(buf) != "through the vfs")
            return 4;
        // A second open of the same end must fail (exclusive).
        auto f2 = env.vfs().open("/pipes/input", FILE_R, e);
        if (f2 || e != Error::NoSuchFile)
            return 5;
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

/** Property sweep: sizes x ring configs all preserve content. */
class PipeProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>>
{
};

TEST_P(PipeProperty, RoundTripIntact)
{
    auto [total, chunks] = GetParam();
    M3System sys(bareCfg());
    sys.runRoot("t", [&, total = total, chunks = chunks] {
        Env &env = Env::cur();
        return pushRoundTrip(env, total, 4096, 4096, 32 * KiB, chunks);
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndChunks, PipeProperty,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4095},
                                         size_t{4096}, size_t{4097},
                                         size_t{100000}),
                       ::testing::Values(1u, 2u, 8u)));

} // anonymous namespace
} // namespace m3
