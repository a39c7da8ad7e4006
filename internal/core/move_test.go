package core

// Tests of the stripe mover (move.go) through its two callers.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// ownOpsAndData sums the own stores' executed-command counters and counts
// the data keys they hold.
func ownOpsAndData(d *testDeploy) (ops int64, dataKeys int) {
	for i := range d.own.Nodes {
		st := d.own.Server(i).Store()
		ops += st.Stats().TotalOps
		dataKeys += len(st.Keys("data:"))
	}
	return ops, dataKeys
}

// TestMoveResolvesOncePerFile: a move resolves each key's owning file —
// path, record, placer, authority rule, priority — once per file, not once
// per key per pass. Evacuating one victim and draining the other, ≥ 128
// stripes of two files each, may cost the own stores (the metadata
// service) only a handful of commands beyond the copies they receive;
// per-key resolution cost two metadata GETs per key per pass.
func TestMoveResolvesOncePerFile(t *testing.T) {
	d := newTestFS(t, 2, 2,
		withHealth(HealthPolicy{ProbeInterval: -1}), withRepair(RepairPolicy{Disable: true}))
	files := map[string][]byte{}
	for i := 0; i < 2; i++ {
		p := fmt.Sprintf("/big%d", i)
		files[p] = randomBytes(int64(1200+i), 800<<10) // 200 stripes each
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	moves := []struct {
		name string
		run  func(node string) (moved int, err error)
	}{
		{"evacuate", func(node string) (int, error) {
			rep, err := d.fs.Evacuate(ctx, node, EvacOptions{})
			return rep.Moved, err
		}},
		{"drain", func(node string) (int, error) {
			rep, err := d.fs.DrainNode(ctx, node, 1)
			return rep.Moved, err
		}},
	}
	for i, mv := range moves {
		held := len(dataKeySet(d.victims, i))
		if held < 128 {
			t.Fatalf("victim %d holds %d stripes; the test needs >= 128", i, held)
		}
		ops0, data0 := ownOpsAndData(d)
		moved, err := mv.run(d.victims.Nodes[i].ID)
		if err != nil {
			t.Fatalf("%s: %v", mv.name, err)
		}
		if moved != held {
			t.Fatalf("%s moved %d of %d keys", mv.name, moved, held)
		}
		ops1, data1 := ownOpsAndData(d)
		extra := (ops1 - ops0) - int64(data1-data0)
		t.Logf("%s: %d keys, %d own-store commands beyond the %d copies they took", mv.name, held, extra, data1-data0)
		if extra > 16 {
			t.Errorf("%s resolved per key, not per file: %d extra own-store commands, want <= 16", mv.name, extra)
		}
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the moves: %v", p, err)
		}
	}
}
