package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memfss/internal/container"
	"memfss/internal/kvstore"
	"memfss/internal/obs"
)

// connPool tracks the store client and (for victim nodes) the bandwidth
// throttle of every node in the deployment.
type connPool struct {
	mu        sync.RWMutex
	clients   map[string]*kvstore.Client     // node ID -> client
	throttles map[string]*container.Throttle // node ID -> throttle (victims only)
	classOf   map[string]string              // node ID -> "own" | "victim"
	password  string
	timeout   time.Duration
	retry     RetryPolicy

	// metrics, when set before add, flows into every client's DialOptions
	// so per-node kvstore telemetry lands on the FileSystem's registry.
	metrics *obs.Registry

	// report, if set, receives the final outcome of every client operation
	// (nil on success, the transport error on exhausted retries) keyed by
	// node ID — the passive-evidence feed into the failure detector.
	report func(nodeID string, err error)

	// removedOps / removedAttempts preserve the op counters of clients
	// dropped after evacuation, so pool-wide totals stay monotonic.
	removedOps      int64
	removedAttempts int64
}

func newConnPool(password string, timeout time.Duration, retry RetryPolicy) *connPool {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &connPool{
		clients:   make(map[string]*kvstore.Client),
		throttles: make(map[string]*container.Throttle),
		classOf:   make(map[string]string),
		password:  password,
		timeout:   timeout,
		retry:     retry,
	}
}

// add registers the nodes of a class, creating clients and, for victim
// nodes with a bandwidth limit, throttles.
func (p *connPool) add(spec ClassSpec) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cls := "own"
	if spec.Victim {
		cls = "victim"
	}
	for _, n := range spec.Nodes {
		if _, dup := p.clients[n.ID]; dup {
			return fmt.Errorf("core: node %q registered twice", n.ID)
		}
		opts := kvstore.DialOptions{
			Password:    p.password,
			Timeout:     p.timeout,
			MaxAttempts: p.retry.MaxAttempts,
			BaseDelay:   p.retry.BaseDelay,
			MaxDelay:    p.retry.MaxDelay,
			OpTimeout:   p.retry.OpTimeout,
			Metrics:     p.metrics,
			Node:        n.ID,
			Class:       cls,
		}
		if p.report != nil {
			id := n.ID
			opts.Observer = func(err error) { p.report(id, err) }
		}
		p.clients[n.ID] = kvstore.Dial(n.Addr, opts)
		p.classOf[n.ID] = cls
		if spec.Victim && spec.Limits.NetworkBytesPerSec > 0 {
			th, err := container.NewThrottle(spec.Limits.NetworkBytesPerSec)
			if err != nil {
				return err
			}
			p.throttles[n.ID] = th
		}
	}
	return nil
}

// errUnknownNode reports a node ID with no registered client — typically a
// node already evacuated and removed. It classifies as unavailability: the
// node is gone, not the data (replicas live elsewhere).
var errUnknownNode = errors.New("core: unknown node")

// client returns the store client for a node ID.
func (p *connPool) client(nodeID string) (*kvstore.Client, error) {
	p.mu.RLock()
	c := p.clients[nodeID]
	p.mu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("%w %q", errUnknownNode, nodeID)
	}
	return c, nil
}

// class reports a node's class label ("own"/"victim"); empty for unknown
// nodes.
func (p *connPool) class(nodeID string) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.classOf[nodeID]
}

// opTotals sums every client's operation and attempt counters (including
// removed clients), the pool-wide numbers behind Counters.StoreOps /
// StoreAttempts.
func (p *connPool) opTotals() (ops, attempts int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ops, attempts = p.removedOps, p.removedAttempts
	for _, c := range p.clients {
		ops += c.Ops()
		attempts += c.Attempts()
	}
	return ops, attempts
}

// throttle returns the node's throttle, or nil (unlimited) for own nodes.
func (p *connPool) throttle(nodeID string) *container.Throttle {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.throttles[nodeID]
}

// detach removes a node from the pool without closing its client: the
// evacuation protocol needs to keep draining a node after the rest of the
// data path can no longer route to it (client lookups fail with
// errUnknownNode the moment detach returns). The node's throttle closes
// here; the caller owns the returned client and must hand it to retire
// when the drain completes so its op counters fold into the pool totals.
func (p *connPool) detach(nodeID string) *kvstore.Client {
	p.mu.Lock()
	c := p.clients[nodeID]
	th := p.throttles[nodeID]
	delete(p.clients, nodeID)
	delete(p.throttles, nodeID)
	p.mu.Unlock()
	th.Close()
	return c
}

// retire closes a detached client, folding its op counters into the
// pool-wide removed totals so StoreOps/StoreAttempts stay monotonic.
func (p *connPool) retire(c *kvstore.Client) {
	if c == nil {
		return
	}
	p.mu.Lock()
	p.removedOps += c.Ops()
	p.removedAttempts += c.Attempts()
	p.mu.Unlock()
	c.Close()
}

// closeAll tears down every client and throttle.
func (p *connPool) closeAll() {
	p.mu.Lock()
	clients := p.clients
	throttles := p.throttles
	p.clients = make(map[string]*kvstore.Client)
	p.throttles = make(map[string]*container.Throttle)
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, th := range throttles {
		th.Close()
	}
}
