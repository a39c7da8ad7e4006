// Quickstart: bring up a complete MemFSS on loopback — two own-node
// stores plus four scavenged victim stores — write and read files through
// the POSIX-style API, and inspect where the data landed.
package main

import (
	"bytes"
	"fmt"
	"log"

	"memfss/internal/container"
	"memfss/internal/core"
)

func main() {
	log.SetFlags(0)
	const password = "quickstart-secret"

	// 1. Launch the per-node store daemons (in-process here; in a real
	//    deployment these are `memfsd` processes on each node).
	own, err := core.StartLocalStores(2, "own", password, 0)
	check(err)
	defer own.Close()
	victims, err := core.StartLocalStores(4, "victim", password, 0)
	check(err)
	defer victims.Close()

	// 2. Choose the data split: keep 25% on own nodes, scavenge the rest
	//    (the paper's best-performing Figure 2 configuration).
	classes, err := core.OwnVictimClasses(own.Nodes, victims.Nodes, 0.25,
		container.Limits{MemoryBytes: 1 << 30}) // scavenge <=1 GiB per victim
	check(err)

	// 3. Mount the file system.
	fs, err := core.New(core.Config{Classes: classes, Password: password})
	check(err)
	defer fs.Close()
	check(fs.ApplyVictimCaps())

	// 4. Use it like a file system.
	check(fs.MkdirAll("/workflow/stage1"))
	intermediate := bytes.Repeat([]byte("intermediate data "), 1<<16) // ~1.1 MiB
	for part := 0; part < 16; part++ {
		check(fs.WriteFile(fmt.Sprintf("/workflow/stage1/part-%04d", part), intermediate))
	}

	f, err := fs.Create("/workflow/stage1/log.txt")
	check(err)
	fmt.Fprintf(f, "tasks=%d bytes=%d\n", 1, len(intermediate))
	check(f.Close())

	got, err := fs.ReadFile("/workflow/stage1/part-0000")
	check(err)
	fmt.Printf("read back %d bytes, intact=%v\n", len(got), bytes.Equal(got, intermediate))

	entries, err := fs.ReadDir("/workflow/stage1")
	check(err)
	fmt.Printf("/workflow/stage1 holds %d entries, e.g.:\n", len(entries))
	for _, e := range entries[:3] {
		fmt.Printf("  %-12s %8d bytes\n", e.Name, e.Size)
	}

	// 5. See the two-layer HRW placement at work: ~25% of the stripe
	//    bytes stay on own nodes, the rest are scavenged.
	var ownBytes, victimBytes int64
	for _, st := range fs.StoreStats() {
		if st.Class == "own" {
			ownBytes += st.BytesUsed
		} else {
			victimBytes += st.BytesUsed
		}
	}
	fmt.Printf("placement: %d bytes on own stores, %d bytes scavenged (%0.f%% victim)\n",
		ownBytes, victimBytes, 100*float64(victimBytes)/float64(ownBytes+victimBytes))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
