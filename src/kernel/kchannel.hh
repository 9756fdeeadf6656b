/**
 * @file
 * The kernel's request channel to a peer that answers on a kernel reply
 * ring: a service (created at registration, Sec. 4.5.3) or, in a
 * multi-kernel machine, a peer kernel (Sec. 7).
 *
 * Credits bound the requests in flight so the peer's ring never
 * overflows; excess requests wait in FIFO order. Every request carries a
 * continuation that runs exactly once: with the reply when it arrives,
 * or with an error when the send fails or the peer dies (failAll).
 */

#ifndef M3_KERNEL_KCHANNEL_HH
#define M3_KERNEL_KCHANNEL_HH

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "base/errors.hh"
#include "base/marshal.hh"

namespace m3
{
namespace kernel
{

/**
 * What to do with a request's answer: the reply's leading error plus the
 * rest of the reply, or the failure plus an empty Unmarshaller. Reads
 * payload only on Error::None.
 */
using KCont = std::function<void(Error, Unmarshaller &)>;

class KChannel;

/**
 * The requests awaiting a reply on one kernel reply ring: request id
 * (the reply label) -> channel and continuation, in issue order. Ids
 * count up from 1 per ring.
 */
class KReplyTable
{
  public:
    KReplyTable() = default;
    /** Its channels point at the table: it never moves. */
    KReplyTable(const KReplyTable &) = delete;
    KReplyTable &operator=(const KReplyTable &) = delete;

    /**
     * The reply to request @p id arrived: return its credit to the
     * channel (which dispatches a queued request if one waits) and hand
     * back the continuation. Empty if @p id is unknown.
     */
    inline KCont complete(uint64_t id);

    /** Requests of every channel on this ring awaiting their reply. */
    size_t pending() const { return table.size(); }

  private:
    friend class KChannel;

    struct Entry
    {
        /** Outlives the entry: a channel's owner fails its requests
         *  (failAll) before it drops the channel. */
        KChannel *chan;
        KCont cont;
    };
    std::map<uint64_t, Entry> table;
    uint64_t nextId = 1;
};

class KChannel
{
  public:
    /**
     * One DTU send of @p msg whose reply carries label @p id; returns
     * the DTU's error.
     */
    using Dispatch =
        std::function<Error(const uint8_t *msg, uint32_t size, uint64_t id)>;

    KChannel(KReplyTable &replies, uint32_t credits, Dispatch dispatch)
        : replies(replies), ceiling(credits), credits(credits),
          dispatch(std::move(dispatch))
    {
    }

    /** The reply table points at the channel: it never moves. */
    KChannel(const KChannel &) = delete;
    KChannel &operator=(const KChannel &) = delete;

    /** Send now if a credit is free, else queue until a reply refunds. */
    void
    send(const void *msg, uint32_t size, KCont cont)
    {
        uint64_t id = replies.nextId++;
        replies.table.emplace(id, KReplyTable::Entry{this, std::move(cont)});
        const uint8_t *bytes = static_cast<const uint8_t *>(msg);
        if (credits == 0)
            queue.emplace_back(id, std::vector<uint8_t>(bytes, bytes + size));
        else
            transmit(id, bytes, size);
    }

    /**
     * The peer is gone: fail every request in flight or queued with
     * @p e, in issue order. Their credits return with them.
     */
    void
    failAll(Error e)
    {
        queue.clear();
        credits = ceiling;
        std::vector<KCont> doomed;
        for (auto it = replies.table.begin(); it != replies.table.end();) {
            if (it->second.chan == this) {
                doomed.push_back(std::move(it->second.cont));
                it = replies.table.erase(it);
            } else {
                ++it;
            }
        }
        for (KCont &cont : doomed)
            run(cont, e);
    }

    /** No request in flight or queued: every credit home. */
    bool idle() const { return credits == ceiling && queue.empty(); }

  private:
    friend class KReplyTable;

    /** A reply returned a credit: dispatch queued requests it allows. */
    void
    refund()
    {
        credits++;
        while (credits > 0 && !queue.empty()) {
            auto [id, bytes] = std::move(queue.front());
            queue.pop_front();
            transmit(id, bytes.data(), static_cast<uint32_t>(bytes.size()));
        }
    }

    /** Send one request on a free credit; a failed send completes it. */
    void
    transmit(uint64_t id, const uint8_t *msg, uint32_t size)
    {
        credits--;
        Error e = dispatch(msg, size, id);
        if (e == Error::None)
            return;
        credits++;
        auto it = replies.table.find(id);
        KCont cont = std::move(it->second.cont);
        replies.table.erase(it);
        run(cont, e);
    }

    static void
    run(KCont &cont, Error e)
    {
        Unmarshaller none(nullptr, 0);
        cont(e, none);
    }

    KReplyTable &replies;
    uint32_t ceiling;
    uint32_t credits;
    Dispatch dispatch;
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> queue;
};

KCont
KReplyTable::complete(uint64_t id)
{
    auto it = table.find(id);
    if (it == table.end())
        return {};
    Entry entry = std::move(it->second);
    table.erase(it);
    entry.chan->refund();
    return std::move(entry.cont);
}

} // namespace kernel
} // namespace m3

#endif // M3_KERNEL_KCHANNEL_HH
