package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"memfss/internal/qos"
)

// This file is the multi-tenant QoS glue: it threads a qos.Registry
// through the data path (attribution by namespace, quota charges on file
// growth, weighted-fair pacing on every transfer), answers store-full
// rejections with a background partial drain (the mover orders its
// reclamation by tenant priority), and adapts the graduated Evacuate
// protocol to the lease broker's Evacuator interface. Everything here is
// inert when Config.QoS.Tenants is nil — the single-tenant deployments of
// earlier PRs are the nil case and pay nothing.

// QoSPolicy wires multi-tenant QoS into a FileSystem.
type QoSPolicy struct {
	// Tenants is the tenant registry shared with the embedder (memfsd
	// registers tenants into the same instance the file system meters
	// against). nil disables QoS entirely.
	Tenants *qos.Registry
}

// tenants is the nil-safe accessor every hook goes through.
func (fs *FileSystem) tenants() *qos.Registry { return fs.cfg.QoS.Tenants }

// Tenants lists the registered tenant specs (nil without QoS).
func (fs *FileSystem) Tenants() []qos.TenantSpec { return fs.tenants().List() }

// qosAdmitWrite runs the write-path admission for one WriteAt: reserve the
// file-growth bytes against the tenant's quota, then pace the full payload
// through its weighted-fair share. A pacing failure rolls the reservation
// back — nothing was written yet. The admission wait is recorded as a trace
// leg and a rejection is journaled to the flight recorder — quota denials
// are cluster events an operator replays, not just errors the caller sees.
// Without QoS it does nothing and records nothing.
func (fs *FileSystem) qosAdmitWrite(tr *opTrace, tenant string, growth, n int64) error {
	t := fs.tenants()
	if t == nil {
		return nil
	}
	start := time.Now()
	err := t.Charge(tenant, growth)
	if err == nil {
		if err = t.Take(tenant, "write", n); err != nil {
			t.Credit(tenant, growth)
		}
	}
	tr.recLeg("qos-admit", time.Since(start), phaseOutcome(err, 0))
	if err != nil {
		fs.obs.noteQuota(tenant, "write: "+err.Error(), tr.traceID())
	}
	return err
}

// qosAdmitRead paces one ReadAt through the tenant's share, traced and
// journaled like qosAdmitWrite.
func (fs *FileSystem) qosAdmitRead(tr *opTrace, tenant string, n int64) error {
	t := fs.tenants()
	if t == nil {
		return nil
	}
	start := time.Now()
	err := t.Take(tenant, "read", n)
	tr.recLeg("qos-admit", time.Since(start), phaseOutcome(err, 0))
	if err != nil {
		fs.obs.noteQuota(tenant, "read: "+err.Error(), tr.traceID())
	}
	return err
}

// qosCreditTenant returns unused quota reservation (short writes).
func (fs *FileSystem) qosCreditTenant(tenant string, n int64) {
	fs.tenants().Credit(tenant, n)
}

// qosCreditPath returns a removed file's bytes to its owner's quota.
func (fs *FileSystem) qosCreditPath(path string, n int64) {
	t := fs.tenants()
	if t == nil || n <= 0 {
		return
	}
	t.Credit(t.ResolveTenant(path), n)
}

// --- tenant persistence ------------------------------------------------------

// tenantKeyPrefix namespaces persisted tenant specs in the metadata store.
// Specs live on the first own node (like the file-ID counter) so a
// restarted memfsd can reload the tenant directory before serving.
const tenantKeyPrefix = "qos:tenant:"

// SaveTenant registers a tenant (Registry.Add semantics: upsert, shares
// rebalance) and persists its spec so restarts reload it. The tenant's
// namespace root is created so attribution works from the first write.
func (fs *FileSystem) SaveTenant(spec qos.TenantSpec) error {
	if err := fs.check(); err != nil {
		return err
	}
	t := fs.tenants()
	if t == nil {
		return fmt.Errorf("core: QoS is not configured (Config.QoS.Tenants is nil)")
	}
	if err := t.Add(spec); err != nil {
		return err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	cli, err := fs.conns.client(fs.meta.ownIDs[0])
	if err != nil {
		return err
	}
	if err := cli.Set(tenantKeyPrefix+spec.Name, raw); err != nil {
		return err
	}
	return fs.MkdirAll(qos.TenantRoot(spec.Name))
}

// DeleteTenant unregisters a tenant and removes its persisted spec. The
// tenant's files are left in place (unattributed from now on); removing
// them is the operator's explicit RemoveAll.
func (fs *FileSystem) DeleteTenant(name string) error {
	if err := fs.check(); err != nil {
		return err
	}
	t := fs.tenants()
	if t == nil {
		return fmt.Errorf("core: QoS is not configured (Config.QoS.Tenants is nil)")
	}
	cli, err := fs.conns.client(fs.meta.ownIDs[0])
	if err != nil {
		return err
	}
	if _, err := cli.Del(tenantKeyPrefix + name); err != nil {
		return err
	}
	if !t.Remove(name) {
		return fmt.Errorf("%w: %s", qos.ErrUnknownTenant, name)
	}
	return nil
}

// LoadTenants reloads every persisted tenant spec into the registry —
// the restart path: memfsd calls this after New so quotas, weights, and
// priorities survive the process. Each tenant's quota usage is primed
// from a walk of its namespace; without it a fresh registry starts at
// zero and over-admits until the books catch up. Returns the loaded
// specs, sorted.
func (fs *FileSystem) LoadTenants() ([]qos.TenantSpec, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	t := fs.tenants()
	if t == nil {
		return nil, nil
	}
	cli, err := fs.conns.client(fs.meta.ownIDs[0])
	if err != nil {
		return nil, err
	}
	keys, err := cli.Keys(tenantKeyPrefix)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, nil
	}
	vals, err := cli.MGet(keys...)
	if err != nil {
		return nil, err
	}
	var out []qos.TenantSpec
	for i, raw := range vals {
		if raw == nil {
			continue
		}
		var spec qos.TenantSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return out, fmt.Errorf("core: corrupt tenant record %s: %w", keys[i], err)
		}
		if err := t.Add(spec); err != nil {
			return out, err
		}
		t.SetUsed(spec.Name, fs.tenantNamespaceBytes(spec.Name))
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// tenantNamespaceBytes sums the file sizes under a tenant's root (0 when
// the root does not exist yet).
func (fs *FileSystem) tenantNamespaceBytes(name string) int64 {
	var total int64
	_ = fs.Walk(qos.TenantRoot(name), func(e EntryInfo) error {
		if !e.IsDir {
			total += e.Size
		}
		return nil
	})
	return total
}

// TenantUsage returns a tenant's accounted quota usage in bytes.
func (fs *FileSystem) TenantUsage(name string) int64 {
	return fs.tenants().Used(name)
}

// --- no-space reclamation ---------------------------------------------------

// reclaimDebounce spaces the no-space-triggered background drains per
// node: every write hitting a full victim must not each launch a drain.
const reclaimDebounce = 5 * time.Second

// noteNoSpace reacts to a store-full write rejection on a victim node by
// launching one debounced background partial drain — the QoS answer to
// kvstore.ErrNoSpace: low-priority data is pushed off the full store so
// the high-priority write that bounced succeeds on retry, instead of every
// tenant degrading equally.
func (fs *FileSystem) noteNoSpace(nodeID string) {
	if fs.tenants() == nil {
		return
	}
	if fs.victimNode(nodeID) != nil {
		return // own nodes are never drained for space
	}
	fs.qosMu.Lock()
	if last, ok := fs.lastReclaim[nodeID]; ok && time.Since(last) < reclaimDebounce {
		fs.qosMu.Unlock()
		return
	}
	fs.lastReclaim[nodeID] = time.Now()
	fs.qosMu.Unlock()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), reclaimDebounce)
		defer cancel()
		// Best effort: a concurrent drain (acquireDrain busy) or transient
		// store error just leaves the node for the pressure monitor.
		_, _ = fs.DrainNode(ctx, nodeID, 0)
	}()
}

// --- lease marketplace adapters ----------------------------------------------

// EvacuateLeased implements qos.Evacuator: a broker revocation, after its
// notice window, rides the full graduated evacuation (fence -> drain ->
// detach -> sweep -> release) so the victim's memory actually comes back
// within the deadline the lease promised.
func (fs *FileSystem) EvacuateLeased(ctx context.Context, node string, deadline time.Duration) error {
	_, err := fs.Evacuate(ctx, node, EvacOptions{Deadline: deadline})
	return err
}

var _ qos.Evacuator = (*FileSystem)(nil)

// AdvertiseCapacity publishes every victim node's current harvestable
// headroom (memory cap minus fill) to the broker as lease supply carrying
// noticeSLO. Unreachable victims are skipped; call again to refresh.
func (fs *FileSystem) AdvertiseCapacity(b *qos.Broker, noticeSLO time.Duration) error {
	if b == nil {
		return fmt.Errorf("core: nil broker")
	}
	fs.mu.RLock()
	classes := fs.classes
	fs.mu.RUnlock()
	var firstErr error
	for _, cls := range classes {
		if !cls.Victim {
			continue
		}
		for _, n := range cls.Nodes {
			cli, err := fs.conns.client(n.ID)
			if err != nil {
				continue
			}
			st, err := cli.Info()
			if err != nil || st.MaxMemory <= 0 {
				continue
			}
			free := st.MaxMemory - st.BytesUsed
			if free < 0 {
				free = 0
			}
			if err := b.Advertise(qos.Offer{Node: n.ID, Bytes: free, NoticeSLO: noticeSLO}); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
