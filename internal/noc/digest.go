package noc

// State digests. Port free times digest in index order; in-flight
// deliveries fold as an unordered multiset over (arrival, seq, callback
// presence, argument content) — whether a message sits in a calendar bucket
// or a heap is an implementation detail. The walk is in place, with no copy.
// Message arguments are opaque `any` values, so the caller supplies the
// argument hasher (nil hashes only presence).

import (
	"math/bits"

	"ugpu/internal/digest"
)

// AppendDigest folds the crossbar's port, in-flight, and counter state.
func (x *Crossbar) AppendDigest(h digest.Hash, hashArg func(any) digest.Hash) digest.Hash {
	h = h.U64(x.latency).Int(x.linkBytes).U64(x.seq)
	for _, at := range x.srcFree {
		h = h.U64(at)
	}
	for _, at := range x.dstFree {
		h = h.U64(at)
	}
	var acc digest.Acc
	q := &x.pending
	for w, m := range q.occupied {
		for ; m != 0; m &= m - 1 {
			b := q.buckets[w*64+bits.TrailingZeros64(m)]
			for i := b.head; i != 0; i = q.nodes[i].next {
				acc.Add(deliveryHash(&q.nodes[i].d, hashArg))
			}
		}
	}
	for i := range q.overflow {
		acc.Add(deliveryHash(&q.overflow[i], hashArg))
	}
	for i := range q.late {
		acc.Add(deliveryHash(&q.late[i], hashArg))
	}
	st := x.stats
	return h.Acc(acc).U64(st.Messages).U64(st.Bytes).U64(st.Drops)
}

func deliveryHash(d *delivery, hashArg func(any) digest.Hash) digest.Hash {
	dh := digest.New().U64(d.at).U64(d.seq).Bool(d.fn != nil).Bool(d.tfn != nil)
	if d.arg != nil && hashArg != nil {
		return dh.Bool(true).U64(uint64(hashArg(d.arg)))
	}
	return dh.Bool(d.arg != nil)
}
