package trace

// Trace IDs are derived, never allocated: a call's ID is a pure
// function of (stream key, incarnation, seq), which both ends of a stream
// hold, so each derives it on its own and the wire never carries it
// (DESIGN.md §8). Seeded runs produce byte-identical IDs. Precondition:
// an endpoint's name is the name its callers route to, or the two ends
// spell the stream key differently and derive different IDs.
// IDs are masked to 48 bits to keep the varint encoding of a call's root
// and parent, which do travel, short; 0 is reserved for "no call"
// (stream- and batch-scoped events), so the mask output is nudged when it
// collides.

// HashStream returns the FNV-1a hash of a stream key string, the
// stream-level input to CallID.
func HashStream(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// CallID derives the trace ID for call seq on incarnation inc of the
// stream with key hash streamHash. Deterministic, allocation-free, and
// never zero.
func CallID(streamHash, inc, seq uint64) uint64 {
	// splitmix64-style finalizer over the mixed inputs: cheap and
	// well-dispersed, so IDs from different streams and incarnations
	// don't collide in practice (48-bit space, thousands of calls).
	x := streamHash ^ inc*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	x &= (1 << 48) - 1
	if x == 0 {
		x = 1
	}
	return x
}
