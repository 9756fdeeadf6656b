/**
 * @file
 * The kernel's request channel to a peer that answers on a kernel reply
 * ring: a service (created at registration, Sec. 4.5.3) or, in a
 * multi-kernel machine, a peer kernel (Sec. 7).
 *
 * Credits bound the requests in flight so the peer's ring never
 * overflows, and the reply ring's slots bound the requests in flight of
 * all channels answering on it, so the kernel's ring never overflows
 * either; excess requests wait in FIFO order. Every request carries a
 * continuation that runs exactly once: with the reply when it arrives,
 * or with an error when the send fails or the peer dies (failAll).
 */

#ifndef M3_KERNEL_KCHANNEL_HH
#define M3_KERNEL_KCHANNEL_HH

#include <algorithm>
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
 * count up from 1 per ring. Each request in flight holds one of the
 * ring's slots until its reply arrives.
 */
class KReplyTable
{
  public:
    /** The table of a ring with @p slots reply slots. */
    explicit KReplyTable(uint32_t slots) : ringSlots(slots), freeSlots(slots)
    {
    }
    /** Its channels point at the table: it never moves. */
    KReplyTable(const KReplyTable &) = delete;
    KReplyTable &operator=(const KReplyTable &) = delete;

    /** Slots of the ring. */
    uint32_t slots() const { return ringSlots; }

    /**
     * The reply to request @p id arrived: return its credit to the
     * channel and its slot to the ring, dispatch the queued requests
     * that can go now and hand back the continuation. Empty if @p id is
     * unknown.
     */
    inline KCont complete(uint64_t id);

    /** Requests of every channel on this ring awaiting their reply. */
    size_t pending() const { return table.size(); }

    /** Nothing pending and every slot free. */
    bool
    idle() const
    {
        return table.empty() && freeSlots == ringSlots && waiting.empty();
    }

  private:
    friend class KChannel;

    /** @p chan has a credit and queued requests: it waits for a slot. */
    inline void wait(KChannel *chan);

    /** Dispatch the waiting channels' queued requests, in the order the
     *  channels began to wait, while slots are free. */
    inline void pump();

    struct Entry
    {
        /** Outlives the entry: a channel's owner fails its requests
         *  (failAll) before it drops the channel. */
        KChannel *chan;
        KCont cont;
    };
    std::map<uint64_t, Entry> table;
    uint64_t nextId = 1;
    uint32_t ringSlots;
    uint32_t freeSlots;
    /** Channels that have a credit and queued requests, waiting for
     *  a slot; failAll() takes a channel off before its owner drops
     *  it. */
    std::deque<KChannel *> waiting;
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

    /**
     * Send now if a credit and a ring slot are free and no request
     * waits before this one, else queue until replies free them.
     */
    void
    send(const void *msg, uint32_t size, KCont cont)
    {
        uint64_t id = replies.nextId++;
        replies.table.emplace(id, KReplyTable::Entry{this, std::move(cont)});
        const uint8_t *bytes = static_cast<const uint8_t *>(msg);
        if (credits > 0 && queue.empty() && replies.freeSlots > 0) {
            transmit(id, bytes, size);
            return;
        }
        queue.emplace_back(id, std::vector<uint8_t>(bytes, bytes + size));
        if (credits > 0)
            replies.wait(this);
    }

    /**
     * The peer is gone: fail every request in flight or queued with
     * @p e, in issue order. Their credits and ring slots return with
     * them.
     */
    void
    failAll(Error e)
    {
        queue.clear();
        unwait();
        replies.freeSlots += ceiling - credits;
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
        replies.pump();
    }

    /** No request in flight or queued: every credit home. */
    bool idle() const { return credits == ceiling && queue.empty(); }

  private:
    friend class KReplyTable;

    /** A reply returned a credit and a ring slot: dispatch the queued
     *  requests they allow, this channel's behind earlier waiters. */
    void
    refund()
    {
        credits++;
        replies.freeSlots++;
        if (!queue.empty())
            replies.wait(this);
        replies.pump();
    }

    /** Send the first queued request. */
    void
    sendQueued()
    {
        auto [id, bytes] = std::move(queue.front());
        queue.pop_front();
        transmit(id, bytes.data(), static_cast<uint32_t>(bytes.size()));
    }

    /** Leave the ring's waiting list. */
    void
    unwait()
    {
        if (!waiting)
            return;
        auto &w = replies.waiting;
        w.erase(std::find(w.begin(), w.end(), this));
        waiting = false;
    }

    /** Send one request on a free credit and ring slot; a failed send
     *  completes it. */
    void
    transmit(uint64_t id, const uint8_t *msg, uint32_t size)
    {
        credits--;
        replies.freeSlots--;
        Error e = dispatch(msg, size, id);
        if (e == Error::None)
            return;
        credits++;
        replies.freeSlots++;
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
    /** On the ring's waiting list. */
    bool waiting = false;
};

void
KReplyTable::wait(KChannel *chan)
{
    if (!chan->waiting) {
        chan->waiting = true;
        waiting.push_back(chan);
    }
}

void
KReplyTable::pump()
{
    while (freeSlots > 0 && !waiting.empty()) {
        KChannel *chan = waiting.front();
        if (chan->credits == 0 || chan->queue.empty()) {
            // It waits for its own credits now, or for nothing.
            chan->waiting = false;
            waiting.pop_front();
            continue;
        }
        chan->sendQueued();
    }
}

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
