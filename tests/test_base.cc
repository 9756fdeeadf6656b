/**
 * @file
 * Unit tests for the base utilities: marshalling, RNG determinism,
 * cycle accounting and error names.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/accounting.hh"
#include "base/bytes.hh"
#include "base/errors.hh"
#include "base/logging.hh"
#include "base/marshal.hh"
#include "base/random.hh"
#include "base/types.hh"

namespace m3
{
namespace
{

TEST(Marshal, RoundTripIntegers)
{
    uint8_t buf[256];
    Marshaller m(buf, sizeof(buf));
    m << uint64_t{42} << uint32_t{7} << int64_t{-3} << uint8_t{255};
    ASSERT_EQ(m.items(), 4u);

    Unmarshaller u(buf, m.size());
    EXPECT_EQ(u.pull<uint64_t>(), 42u);
    EXPECT_EQ(u.pull<uint32_t>(), 7u);
    EXPECT_EQ(u.pull<int64_t>(), -3);
    EXPECT_EQ(u.pull<uint8_t>(), 255);
}

TEST(Marshal, RoundTripStrings)
{
    uint8_t buf[256];
    Marshaller m(buf, sizeof(buf));
    m << std::string("hello") << uint64_t{1} << std::string("")
      << "c-string";

    Unmarshaller u(buf, m.size());
    EXPECT_EQ(u.pull<std::string>(), "hello");
    EXPECT_EQ(u.pull<uint64_t>(), 1u);
    EXPECT_EQ(u.pull<std::string>(), "");
    EXPECT_EQ(u.pull<std::string>(), "c-string");
}

TEST(Marshal, ItemsAreEightByteAligned)
{
    uint8_t buf[256];
    Marshaller m(buf, sizeof(buf));
    m << uint8_t{1} << uint8_t{2};
    // Two one-byte items occupy two 8-byte slots.
    EXPECT_EQ(m.size(), 9u);

    Unmarshaller u(buf, 16);
    EXPECT_EQ(u.pull<uint8_t>(), 1);
    EXPECT_EQ(u.pull<uint8_t>(), 2);
}

TEST(Marshal, EnumsRoundTrip)
{
    enum class E : uint64_t { A = 5, B = 9 };
    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << E::B << Error::NoCredits;

    Unmarshaller u(buf, m.size());
    EXPECT_EQ(u.pull<E>(), E::B);
    EXPECT_EQ(u.pull<Error>(), Error::NoCredits);
}

/** The bytes of @p b, copied out. */
std::vector<uint8_t>
flat(const Bytes &b)
{
    std::vector<uint8_t> out(b.size());
    b.copyTo(out.data());
    return out;
}

TEST(Bytes, SlicesConcatenateAndCut)
{
    std::vector<uint8_t> v(100);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<uint8_t>(i);
    const SharedBytes src =
        std::make_shared<const std::vector<uint8_t>>(v);

    // Slices that continue each other in their source become one.
    const Bytes a(src, 10, 20);
    Bytes ab = a + Bytes(src, 30, 5);
    ASSERT_EQ(ab.slices().size(), 1u);
    EXPECT_EQ(ab.slices()[0].off, 10u);
    EXPECT_EQ(ab.size(), 25u);
    EXPECT_FALSE(ab.slices()[0].copied);

    // A copy is a slice of its own, marked copied, and never continues
    // a shared one.
    const uint8_t raw[3] = {7, 8, 9};
    ab += Bytes::copyOf(raw, sizeof(raw));
    ab += Bytes(src, 35, 5);
    ASSERT_EQ(ab.slices().size(), 3u);
    EXPECT_TRUE(ab.slices()[1].copied);
    std::vector<uint8_t> want(v.begin() + 10, v.begin() + 35);
    want.insert(want.end(), raw, raw + 3);
    want.insert(want.end(), v.begin() + 35, v.begin() + 40);
    EXPECT_EQ(flat(ab), want);

    // sub(), prefix() and suffix() across slice edges.
    for (size_t from = 0; from <= ab.size(); ++from) {
        for (size_t len = 0; from + len <= ab.size(); ++len) {
            const Bytes s = ab.sub(from, len);
            EXPECT_EQ(s.size(), len);
            EXPECT_EQ(flat(s), std::vector<uint8_t>(
                                   want.begin() + from,
                                   want.begin() + from + len));
        }
        EXPECT_EQ(flat(ab.prefix(from) + ab.suffix(from)), want);
    }
    EXPECT_TRUE(ab.suffix(ab.size()).empty());
    EXPECT_TRUE(Bytes(src, 100, 0).slices().empty());
}

TEST(BytesDeathTest, OutOfBoundsPanics)
{
    const SharedBytes src =
        std::make_shared<const std::vector<uint8_t>>(16, 0);
    EXPECT_DEATH(Bytes(src, 10, 7), "Bytes out of bounds");
    EXPECT_DEATH(Bytes(src, 0, 16).sub(8, 9), "Bytes::sub out of bounds");
}

TEST(Random, DeterministicForSameSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, RangesRespected)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.nextRange(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

/** The low bytes of the next @p n values of a serial next() loop. */
std::vector<uint8_t>
serialLowBytes(Random &r, size_t n)
{
    std::vector<uint8_t> out(n);
    for (uint8_t &b : out)
        b = static_cast<uint8_t>(r.next());
    return out;
}

TEST(Random, FillLowBytesMatchesSerialNext)
{
    const size_t sizes[] = {0,    1,    63,   64,  65,
                            4095, 4096, 4097, 2 * MiB + 3};
    const uint64_t seeds[] = {0, 1, 99, ~0ULL};
    for (uint64_t seed : seeds) {
        for (size_t n : sizes) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << n);
            Random ref(seed), fast(seed);
            std::vector<uint8_t> want = serialLowBytes(ref, n);
            std::vector<uint8_t> got(n);
            fast.fillLowBytes(got.data(), n);
            ASSERT_EQ(got, want);
            EXPECT_EQ(fast.next(), ref.next());
        }

        // The same stream written in uneven chunks.
        SCOPED_TRACE(testing::Message() << "seed " << seed << " chunked");
        const size_t total = 2 * MiB + 3;
        Random ref(seed), fast(seed);
        std::vector<uint8_t> want = serialLowBytes(ref, total);
        std::vector<uint8_t> got(total);
        size_t done = 0;
        for (size_t c : {size_t{1}, size_t{63}, size_t{64}, size_t{4096},
                         total - 4224}) {
            fast.fillLowBytes(got.data() + done, c);
            done += c;
        }
        ASSERT_EQ(done, total);
        ASSERT_EQ(got, want);
        EXPECT_EQ(fast.next(), ref.next());
    }
}

TEST(Accounting, ChargesToStackTop)
{
    Accounting acc;
    acc.charge(10);  // default category: App
    acc.push(Category::Os);
    acc.charge(20);
    acc.push(Category::Xfer);
    acc.charge(5);
    acc.pop();
    acc.charge(1);
    acc.pop();

    EXPECT_EQ(acc.total(Category::App), 10u);
    EXPECT_EQ(acc.total(Category::Os), 21u);
    EXPECT_EQ(acc.total(Category::Xfer), 5u);
    EXPECT_EQ(acc.totalBusy(), 36u);
}

TEST(Accounting, ScopedCategoryRestores)
{
    Accounting acc;
    {
        ScopedCategory s(acc, Category::Xfer);
        acc.charge(3);
    }
    acc.charge(4);
    EXPECT_EQ(acc.total(Category::Xfer), 3u);
    EXPECT_EQ(acc.total(Category::App), 4u);
}

TEST(Accounting, MergeAddsCounters)
{
    Accounting a, b;
    a.chargeTo(Category::Os, 10);
    b.chargeTo(Category::Os, 5);
    b.chargeTo(Category::Xfer, 2);
    a.merge(b);
    EXPECT_EQ(a.total(Category::Os), 15u);
    EXPECT_EQ(a.total(Category::Xfer), 2u);
}

TEST(Errors, NamesAreUnique)
{
    EXPECT_STREQ(errorName(Error::None), "None");
    EXPECT_STREQ(errorName(Error::NoCredits), "NoCredits");
    EXPECT_STRNE(errorName(Error::NoSuchFile), errorName(Error::NoSpace));
}

TEST(Errors, EveryCodeHasADistinctName)
{
    std::set<std::string> seen;
    for (uint32_t i = 0; i < static_cast<uint32_t>(Error::_COUNT); ++i) {
        const char *name = errorName(static_cast<Error>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "Unknown") << "code " << i << " has no name";
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate error name: " << name;
    }
    // Out-of-range values must not crash and must be identifiable.
    EXPECT_STREQ(errorName(Error::_COUNT), "Unknown");
    EXPECT_STREQ(errorName(static_cast<Error>(0xffff)), "Unknown");
}

TEST(Accounting, CategoryNames)
{
    EXPECT_STREQ(categoryName(Category::App), "App");
    EXPECT_STREQ(categoryName(Category::Os), "OS");
    EXPECT_STREQ(categoryName(Category::Xfer), "Xfers");
}

/**
 * A host program may log from several threads; warn() must emit whole
 * lines no matter how many threads race it. Hammer it from many
 * threads into a captured stderr and verify no line was torn.
 */
TEST(Logging, ConcurrentWarnsAreNeverTorn)
{
    constexpr int THREADS = 8;
    constexpr int LINES = 200;
    static const char FILLER[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

    char path[] = "/tmp/m3_tornline_XXXXXX";
    int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    std::fflush(stderr);
    int saved = dup(fileno(stderr));
    ASSERT_GE(saved, 0);
    ASSERT_GE(dup2(fd, fileno(stderr)), 0);
    close(fd);

    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t)
        workers.emplace_back([t] {
            for (int i = 0; i < LINES; ++i)
                warn("torn t%02d i%03d %s", t, i, FILLER);
        });
    for (auto &w : workers)
        w.join();

    std::fflush(stderr);
    ASSERT_GE(dup2(saved, fileno(stderr)), 0);
    close(saved);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    // Every line must be exactly "warn: torn tTT iIII <filler>", and
    // each (thread, index) pair must appear exactly once.
    const size_t lineLen = std::string("warn: torn t00 i000 ").size() +
                           sizeof(FILLER) - 1;
    std::set<std::pair<int, int>> seen;
    std::string line;
    size_t count = 0;
    while (std::getline(in, line)) {
        ++count;
        ASSERT_EQ(line.size(), lineLen) << "torn line: '" << line << "'";
        ASSERT_EQ(line.rfind("warn: torn t", 0), 0u) << line;
        ASSERT_EQ(line.substr(lineLen - (sizeof(FILLER) - 1)), FILLER)
            << line;
        int t = std::stoi(line.substr(12, 2));
        int i = std::stoi(line.substr(16, 3));
        EXPECT_TRUE(seen.emplace(t, i).second)
            << "duplicate line t" << t << " i" << i;
    }
    in.close();
    std::remove(path);
    EXPECT_EQ(count, static_cast<size_t>(THREADS) * LINES);
    EXPECT_EQ(seen.size(), static_cast<size_t>(THREADS) * LINES);
}

} // anonymous namespace
} // namespace m3
