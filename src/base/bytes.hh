/**
 * @file
 * Bytes: an immutable byte string made of slices of shared bytes. File
 * data that a program moves without looking at it (tar copying a member,
 * a replay streaming a file) travels as a Bytes value, so a memory can
 * refer to the bytes it is given instead of copying them, and a copy of
 * a file stays a reference to the file's bytes, exactly and without
 * guessing (MemTarget::read, MemTarget::write).
 */

#ifndef M3_BASE_BYTES_HH
#define M3_BASE_BYTES_HH

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace m3
{

class Bytes
{
  public:
    /** @p len bytes of @p src at @p off. */
    struct Slice
    {
        SharedBytes src;
        size_t off;
        size_t len;
        /**
         * Bytes a program produced (copyOf), not shared bytes: a memory
         * stores them like bytes from a host buffer instead of keeping
         * a reference to them.
         */
        bool copied;

        const uint8_t *data() const { return src->data() + off; }
    };

    Bytes() = default;

    /** The @p len bytes of @p src at @p off, by reference. */
    Bytes(SharedBytes src, size_t off, size_t len)
    {
        if (!src || off > src->size() || len > src->size() - off)
            panic("Bytes out of bounds: %zu + %zu", off, len);
        append(Slice{std::move(src), off, len, false});
    }

    /** A copy of the @p len bytes at @p p. */
    static Bytes
    copyOf(const void *p, size_t len)
    {
        Bytes b;
        const uint8_t *at = static_cast<const uint8_t *>(p);
        b.append(Slice{std::make_shared<const std::vector<uint8_t>>(
                           at, at + len),
                       0, len, true});
        return b;
    }

    size_t size() const { return total; }
    bool empty() const { return total == 0; }

    /** The slices, in order; none is empty. */
    std::span<const Slice>
    slices() const
    {
        if (!many.empty())
            return many;
        return {&one, one.len ? 1u : 0u};
    }

    /** The @p len bytes at @p from. */
    Bytes
    sub(size_t from, size_t len) const
    {
        if (from > total || len > total - from)
            panic("Bytes::sub out of bounds: %zu + %zu > %zu", from, len,
                  total);
        if (from == 0 && len == total)
            return *this;
        Bytes b;
        for (const Slice &s : slices()) {
            if (len == 0)
                break;
            if (from >= s.len) {
                from -= s.len;
                continue;
            }
            const size_t n = std::min(len, s.len - from);
            b.append(Slice{s.src, s.off + from, n, s.copied});
            from = 0;
            len -= n;
        }
        return b;
    }

    /** The first @p len bytes. */
    Bytes prefix(size_t len) const { return sub(0, len); }

    /** The bytes after the first @p from. */
    Bytes
    suffix(size_t from) const
    {
        return sub(from, total - from);
    }

    /** Append @p o; a slice continuing the last one in its source
     *  extends it. */
    Bytes &
    operator+=(const Bytes &o)
    {
        if (empty())
            return *this = o;
        if (this == &o)
            return *this += Bytes(o);
        for (const Slice &s : o.slices())
            append(s);
        return *this;
    }

    Bytes &
    operator+=(Bytes &&o)
    {
        if (empty())
            return *this = std::move(o);
        return *this += o;
    }

    friend Bytes
    operator+(Bytes a, const Bytes &b)
    {
        a += b;
        return a;
    }

    /** Copy all bytes to @p dst. */
    void
    copyTo(void *dst) const
    {
        uint8_t *out = static_cast<uint8_t *>(dst);
        for (const Slice &s : slices()) {
            std::memcpy(out, s.data(), s.len);
            out += s.len;
        }
    }

  private:
    void
    append(Slice s)
    {
        if (s.len == 0)
            return;
        total += s.len;
        if (total == s.len) {
            one = std::move(s);
            return;
        }
        Slice &last = many.empty() ? one : many.back();
        if (last.src == s.src && last.copied == s.copied &&
            last.off + last.len == s.off) {
            last.len += s.len;
            return;
        }
        if (many.empty())
            many.push_back(std::move(one));
        many.push_back(std::move(s));
        one = Slice{};
    }

    /** The only slice, or none (len 0), while many is empty: most
     *  values hold one slice, and need no allocation. */
    Slice one{};
    /** All slices once there are two or more. */
    std::vector<Slice> many;
    size_t total = 0;
};

} // namespace m3

#endif // M3_BASE_BYTES_HH
