package kernels

// Arena is a bump allocator for float64 scratch buffers. Take carves zeroed
// slices out of large backing chunks; Reset rewinds the arena so the memory
// is reused by the next round of Takes. One Arena serves one goroutine —
// there is no locking.
//
// Ownership rule: a slice returned by Take is valid until the next Reset.
// Callers that need state to survive a Reset (trained weights, cached
// hidden states) must copy it out; everything transient — gate activations,
// BPTT caches, Jacobians — lives in the arena.
type Arena struct {
	chunks [][]float64
	cur    int // index of the chunk currently being carved
	off    int // first free element in chunks[cur]
}

// arenaMinChunk is the smallest backing chunk (float64s). 8192 floats =
// 64 KiB, enough for a whole RevPred-sized LSTM cache in one chunk.
const arenaMinChunk = 8192

// Reset rewinds the arena without releasing its chunks.
func (a *Arena) Reset() {
	a.cur = 0
	a.off = 0
}

// Take returns a zeroed []float64 of length n carved from the arena.
func (a *Arena) Take(n int) []float64 {
	s := a.TakeRaw(n)
	Zero(s)
	return s
}

// TakeRaw is Take without the zeroing pass, for buffers the caller fully
// overwrites before reading (gate pre-activations, copied-into state). The
// returned memory holds stale values from earlier rounds.
func (a *Arena) TakeRaw(n int) []float64 {
	if n == 0 {
		return nil
	}
	// Carve from the current chunk, skipping to the next when full; a new
	// chunk doubles the last one's size until n fits.
	for a.cur < len(a.chunks) {
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		a.cur++
		a.off = 0
	}
	size := arenaMinChunk
	if len(a.chunks) > 0 {
		size = 2 * len(a.chunks[len(a.chunks)-1])
	}
	for size < n {
		size *= 2
	}
	a.chunks = append(a.chunks, make([]float64, size))
	a.cur = len(a.chunks) - 1
	s := a.chunks[a.cur][:n:n]
	a.off = n
	return s
}
