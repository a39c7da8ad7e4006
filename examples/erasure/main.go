// Erasure example: run MemFSS with Reed–Solomon redundancy (the paper's
// in-progress fault-tolerance extension, §III-E), lose two stores, read
// everything back, and let the scrubber rebuild the missing shards —
// all over real TCP stores.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"memfss/internal/core"
)

func main() {
	log.SetFlags(0)
	const password = "erasure-secret"

	// RS(4, 2): any 4 of 6 shards reconstruct a stripe, at 50% storage
	// overhead instead of replication's 200% for the same 2-loss
	// tolerance.
	stores, err := core.StartLocalStores(8, "node", password, 0)
	check(err)
	defer stores.Close()
	fs, err := core.New(core.Config{
		Classes:    []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
		Password:   password,
		StripeSize: 256 << 10,
		Redundancy: core.Redundancy{Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2},
	})
	check(err)
	defer fs.Close()

	payload := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	check(fs.WriteFile("/dataset", payload))
	fmt.Printf("wrote %d bytes as RS(4,2) shards across 8 stores\n", len(payload))

	// Two machines reboot: their stores come back up empty (in-memory
	// stores lose everything on restart).
	stores.Server(2).Store().FlushAll()
	stores.Server(5).Store().FlushAll()
	fmt.Println("stores node-2 and node-5 restarted empty (lost their shards)")

	got, err := fs.ReadFile("/dataset")
	check(err)
	fmt.Printf("read back %d bytes after double loss, intact=%v\n",
		len(got), bytes.Equal(got, payload))

	// The scrubber proactively reconstructs the missing shards from the
	// survivors and rewrites them, restoring full 2-loss tolerance.
	rep, err := fs.Scrub()
	check(err)
	fmt.Printf("scrub: %d stripes checked, %d shards rebuilt, %d unrepairable\n",
		rep.StripesChecked, len(rep.Restored), len(rep.Unrepairable))

	rep2, err := fs.Scrub()
	check(err)
	fmt.Printf("second scrub: %d shards rebuilt (redundancy fully restored)\n", len(rep2.Restored))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
