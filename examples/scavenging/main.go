// Scavenging example: the full victim lifecycle over real TCP stores —
// a victim class registers its spare memory, MemFSS extends its storage
// space onto it, the tenant takes its memory back (memory pressure), the
// monitor evacuates the victim live, and every file stays readable.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"memfss/internal/container"
	"memfss/internal/core"
)

func main() {
	log.SetFlags(0)
	const password = "scavenge-secret"

	own, err := core.StartLocalStores(2, "own", password, 0)
	check(err)
	defer own.Close()
	victims, err := core.StartLocalStores(3, "victim", password, 0)
	check(err)
	defer victims.Close()

	classes, err := core.OwnVictimClasses(own.Nodes, victims.Nodes, 0.25, container.Limits{MemoryBytes: 256 << 20})
	check(err)
	fs, err := core.New(core.Config{Classes: classes, Password: password})
	check(err)
	defer fs.Close()
	check(fs.ApplyVictimCaps())

	// The monitor plays the cluster's watchdog: when a tenant needs its
	// memory back, the victim store reports pressure and gets evacuated.
	mon := core.NewMonitor(fs, 50*time.Millisecond, func(format string, args ...any) {
		fmt.Printf("[monitor] "+format+"\n", args...)
	})
	check(mon.Start())
	defer mon.Stop()

	// Fill the system with workflow data.
	check(fs.MkdirAll("/data"))
	files := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/data/part-%04d", i)
		payload := make([]byte, 3<<20)
		rng.Read(payload)
		files[path] = payload
		check(fs.WriteFile(path, payload))
	}
	report(fs, "after writing 24 MiB across own + scavenged stores")

	// The tenant on victim-0 suddenly needs its memory: shrink the store
	// cap below its current usage. The store reports pressure; the
	// monitor notices and evacuates it.
	victim0 := victims.Server(0).Store()
	used := victim0.Stats().BytesUsed
	fmt.Printf("\n[tenant] victim-0 reclaims its memory (store holds %d bytes)\n", used)
	victim0.SetMaxMemory(used/2 + 1)

	deadline := time.Now().Add(10 * time.Second)
	for victim0.Stats().BytesUsed > 0 {
		if time.Now().After(deadline) {
			log.Fatal("monitor failed to evacuate the pressured victim")
		}
		time.Sleep(50 * time.Millisecond)
	}
	report(fs, "after live evacuation of victim-0")

	// Every byte must still be readable (lazy probing finds re-homed
	// stripes without any metadata rewrite).
	for path, want := range files {
		got, err := fs.ReadFile(path)
		check(err)
		if !bytes.Equal(got, want) {
			log.Fatalf("%s corrupted after evacuation", path)
		}
	}
	fmt.Println("\nall files verified intact after evacuation")
}

func report(fs *core.FileSystem, label string) {
	fmt.Printf("\n-- %s --\n", label)
	for _, id := range []string{"own-0", "own-1", "victim-0", "victim-1", "victim-2"} {
		st, ok := fs.StoreStats()[id]
		if !ok {
			fmt.Printf("  %-10s (evacuated, removed from MemFSS)\n", id)
			continue
		}
		fmt.Printf("  %-10s class=%-7s used=%9d bytes keys=%d\n", id, st.Class, st.BytesUsed, st.NumKeys)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
