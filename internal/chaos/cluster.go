package chaos

import (
	"fmt"
	"time"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/faultwrap"
	"memfss/internal/obs"
	"memfss/internal/qos"
)

// Cluster is the live deployment a scenario runs against: own stores
// reached directly (the paper's trusted metadata path), victim stores
// reached through one faultwrap proxy each, and — when the topology asks
// for tenants — a QoS registry and victim capacity advertised to the file
// system's lease book.
type Cluster struct {
	FS      *core.FileSystem
	Own     *core.LocalStores
	Victims *core.LocalStores
	// Proxies[i] fronts Victims.Nodes[i]; fault actions address victims
	// by this index.
	Proxies []*faultwrap.Proxy
	Tenants *qos.Registry
	Obs     *obs.Registry

	closers []func()
}

// VictimID returns the node ID behind victim proxy index i.
func (c *Cluster) VictimID(i int) string { return c.Victims.Nodes[i].ID }

// Close tears the cluster down in reverse build order.
func (c *Cluster) Close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// buildCluster brings the topology up. The caller owns Close.
func buildCluster(topo Topology) (*Cluster, error) {
	const password = "chaos-secret"
	ownN, victimN := topo.OwnNodes, topo.VictimNodes
	if ownN <= 0 {
		ownN = 2
	}
	if victimN <= 0 {
		victimN = 3
	}
	c := &Cluster{}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	own, err := core.StartLocalStores(ownN, "own", password, 0)
	if err != nil {
		return fail(fmt.Errorf("chaos: own stores: %w", err))
	}
	c.Own = own
	c.closers = append(c.closers, own.Close)
	victims, err := core.StartLocalStores(victimN, "victim", password, 0)
	if err != nil {
		return fail(fmt.Errorf("chaos: victim stores: %w", err))
	}
	c.Victims = victims
	c.closers = append(c.closers, victims.Close)

	targets := make([]string, victimN)
	for i, n := range victims.Nodes {
		targets[i] = n.Addr
	}
	proxies, err := faultwrap.WrapAll(targets, topo.Plan)
	if err != nil {
		return fail(fmt.Errorf("chaos: proxies: %w", err))
	}
	c.Proxies = proxies
	c.closers = append(c.closers, func() {
		for _, p := range proxies {
			p.Close()
		}
	})
	proxied := make([]core.NodeSpec, victimN)
	for i, n := range victims.Nodes {
		proxied[i] = core.NodeSpec{ID: n.ID, Addr: proxies[i].Addr()}
	}

	classes, err := core.OwnVictimClasses(own.Nodes, proxied, 0.25, container.Limits{MemoryBytes: 1 << 30})
	if err != nil {
		return fail(fmt.Errorf("chaos: own fraction: %w", err))
	}
	stripe := topo.StripeSize
	if stripe == 0 {
		stripe = 4 << 10
	}
	cfg := core.Config{
		Classes:       classes,
		StripeSize:    stripe,
		Password:      password,
		DialTimeout:   5 * time.Second,
		PipelineDepth: topo.PipelineDepth,
		Redundancy:    topo.Redundancy,
		Retry:         topo.Retry,
		Health:        topo.Health,
		Repair:        topo.Repair,
	}
	c.Obs = obs.NewRegistry()
	cfg.Obs.Registry = c.Obs
	if len(topo.Tenants) > 0 {
		c.Tenants = qos.NewRegistry(qos.Options{Obs: c.Obs})
		c.closers = append(c.closers, func() { c.Tenants.Close() })
		cfg.QoS.Tenants = c.Tenants
	}
	fs, err := core.New(cfg)
	if err != nil {
		return fail(fmt.Errorf("chaos: core.New: %w", err))
	}
	c.FS = fs
	c.closers = append(c.closers, func() { fs.Close() })

	if len(topo.Tenants) > 0 {
		for _, spec := range topo.Tenants {
			if err := fs.SaveTenant(spec); err != nil {
				return fail(fmt.Errorf("chaos: tenant %s: %w", spec.Name, err))
			}
		}
		if err := fs.ApplyVictimCaps(); err != nil {
			return fail(fmt.Errorf("chaos: victim caps: %w", err))
		}
		notice := topo.LeaseNoticeSLO
		if notice == 0 {
			notice = 200 * time.Millisecond
		}
		if err := fs.AdvertiseCapacity(notice); err != nil {
			return fail(fmt.Errorf("chaos: advertise: %w", err))
		}
	}
	return c, nil
}
