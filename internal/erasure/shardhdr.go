package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Every value stored for a stripe — an erasure shard, a replica, an
// unreplicated stripe — carries a fixed header naming the write that
// produced it. A replica is the k = 1 shard: readers and repair only ever
// combine (or, for k = 1, serve) shards from one write, so joining two
// writes' shards, or serving a copy that missed a write, cannot happen by
// accident — the gather layer groups values by (generation, write ID) and
// prefers the highest generation.
//
//	offset  size  field
//	0       1     magic (0xE5)
//	1       1     header version (1)
//	2       8     generation, big endian
//	10      8     write ID, big endian
//
// The generation is a per-stripe counter. An erasure write stamps its
// shards itself with (highest generation observed on the stripe) + 1; a
// replica's store stamps it, one past the generation the copy already
// holds (kvstore's VSET), so a copy that missed a write stays behind even
// after later writes land on it. The write ID is a random per-write nonce
// that disambiguates two writers who reached the same generation — their
// values stay distinct groups instead of interleaving.

const (
	shardMagic   = 0xE5
	shardVersion = 1
	// HeaderSize is the length in bytes of the shard header prepended to
	// every stored shard.
	HeaderSize = 18
)

// ErrBadShard reports a stored shard whose header is missing or corrupt.
var ErrBadShard = errors.New("erasure: malformed shard header")

// WrapShard prepends the shard header for one write (generation gen,
// write ID id) to payload, returning a fresh buffer ready to store.
func WrapShard(gen, id uint64, payload []byte) []byte {
	out := make([]byte, HeaderSize+len(payload))
	PutHeader(out, gen, id)
	copy(out[HeaderSize:], payload)
	return out
}

// PutHeader stamps the header for write (gen, id) into b[:HeaderSize].
func PutHeader(b []byte, gen, id uint64) {
	b[0] = shardMagic
	b[1] = shardVersion
	binary.BigEndian.PutUint64(b[2:], gen)
	binary.BigEndian.PutUint64(b[10:], id)
}

// HasHeader reports whether b starts with a valid shard header — the rule
// ParseShard applies, without building its error, so a caller that tests
// every stored value does not allocate for the ones without a header.
func HasHeader(b []byte) bool {
	return len(b) >= HeaderSize && b[0] == shardMagic && b[1] == shardVersion
}

// ParseShard splits a stored shard into its header fields and payload.
// The payload aliases b; callers that outlive b must copy it.
func ParseShard(b []byte) (gen, id uint64, payload []byte, err error) {
	if len(b) < HeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrBadShard, len(b))
	}
	if !HasHeader(b) {
		return 0, 0, nil, fmt.Errorf("%w: magic %#x version %d", ErrBadShard, b[0], b[1])
	}
	return binary.BigEndian.Uint64(b[2:]), binary.BigEndian.Uint64(b[10:]), b[HeaderSize:], nil
}
