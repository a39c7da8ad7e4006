package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Every erasure shard stored on a node carries a fixed header naming the
// write that produced it. Reconstruction must only ever combine shards
// from one write: a stripe is read-modify-written as a unit, so shards
// from two different writes encode two different payloads, and joining
// them silently produces garbage that no checksum downstream would catch.
// The header makes that impossible to do by accident — the gather layer
// groups shards by (generation, write ID) and reconstructs only within
// one group.
//
//	offset  size  field
//	0       1     magic (0xE5)
//	1       1     header version (1)
//	2       8     generation, big endian
//	10      8     write ID, big endian
//
// The generation is a per-stripe counter: each read-modify-write stamps
// its shards with (highest generation observed on the stripe) + 1, so a
// reader preferring the highest complete generation always returns the
// newest settled write. The write ID is a random per-write nonce that
// disambiguates two writers who raced to the same generation — their
// shard sets stay distinct groups instead of interleaving.

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
	putHeader(out, gen, id)
	copy(out[HeaderSize:], payload)
	return out
}

// putHeader stamps the shard header into b[:HeaderSize].
func putHeader(b []byte, gen, id uint64) {
	b[0] = shardMagic
	b[1] = shardVersion
	binary.BigEndian.PutUint64(b[2:], gen)
	binary.BigEndian.PutUint64(b[10:], id)
}

// ParseShard splits a stored shard into its header fields and payload.
// The payload aliases b; callers that outlive b must copy it.
func ParseShard(b []byte) (gen, id uint64, payload []byte, err error) {
	if len(b) < HeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrBadShard, len(b))
	}
	if b[0] != shardMagic || b[1] != shardVersion {
		return 0, 0, nil, fmt.Errorf("%w: magic %#x version %d", ErrBadShard, b[0], b[1])
	}
	return binary.BigEndian.Uint64(b[2:]), binary.BigEndian.Uint64(b[10:]), b[HeaderSize:], nil
}
