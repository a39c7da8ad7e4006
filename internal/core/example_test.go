package core_test

import (
	"fmt"
	"log"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/hrw"
)

// Example shows the minimal MemFSS lifecycle: launch stores, mount the
// file system with a 25/75 own/victim split, and use the POSIX-style API.
func Example() {
	const password = "example-secret"
	own, err := core.StartLocalStores(2, "own", password, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer own.Close()
	victims, err := core.StartLocalStores(4, "victim", password, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer victims.Close()

	delta, _ := hrw.DeltaForOwnFraction(0.25)
	fs, err := core.New(core.Config{
		Classes: []core.ClassSpec{
			{Name: "own", Weight: delta, Nodes: own.Nodes},
			{Name: "victim", Nodes: victims.Nodes, Victim: true,
				Limits: container.Limits{MemoryBytes: 1 << 30}},
		},
		Password: password,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	if err := fs.MkdirAll("/stage1"); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/stage1/part-0", []byte("intermediate data")); err != nil {
		log.Fatal(err)
	}
	data, err := fs.ReadFile("/stage1/part-0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	// Output: intermediate data
}

// ExampleFileSystem_ReadDir lists a directory.
func ExampleFileSystem_ReadDir() {
	stores, _ := core.StartLocalStores(1, "own", "", 0)
	defer stores.Close()
	fs, err := core.New(core.Config{
		Classes: []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	fs.MkdirAll("/out")
	fs.WriteFile("/out/b.dat", []byte("bb"))
	fs.WriteFile("/out/a.dat", []byte("a"))
	entries, _ := fs.ReadDir("/out")
	for _, e := range entries {
		fmt.Printf("%s %d\n", e.Name, e.Size)
	}
	// Output:
	// a.dat 1
	// b.dat 2
}

// ExampleFileSystem_Scrub restores a lost replica.
func ExampleFileSystem_Scrub() {
	stores, _ := core.StartLocalStores(3, "own", "", 0)
	defer stores.Close()
	fs, err := core.New(core.Config{
		Classes:    []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
		Redundancy: core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	fs.WriteFile("/f", []byte("replicated"))
	// One store loses its copy (restart, eviction, ...).
	for i := 0; i < 3; i++ {
		st := stores.Server(i).Store()
		if keys := st.KeysN("data:", 0); len(keys) > 0 {
			st.Del(keys[0])
			break
		}
	}
	rep, _ := fs.Scrub()
	fmt.Printf("restored %d replica(s)\n", len(rep.Restored))
	// Output: restored 1 replica(s)
}

// ExampleFileSystem_OpenFile appends to an existing file.
func ExampleFileSystem_OpenFile() {
	stores, _ := core.StartLocalStores(1, "own", "", 0)
	defer stores.Close()
	fs, err := core.New(core.Config{
		Classes: []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	fs.WriteFile("/log", []byte("line1\n"))
	f, _ := fs.OpenFile("/log", core.O_RDWR|core.O_APPEND)
	fmt.Fprintln(f, "line2")
	f.Close()
	data, _ := fs.ReadFile("/log")
	fmt.Print(string(data))
	// Output:
	// line1
	// line2
}
