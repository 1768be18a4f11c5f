package cluster

// This file is the health half of the client tier: per-node failure
// accounting with temporary ejection, and the background prober that
// keeps the picture current while traffic is idle.
//
// The policy is deliberately simple and fail-fast:
//
//   - every failed request (inline traffic or background probe) counts
//     one consecutive failure against the node; any success resets it;
//   - at EjectAfter consecutive failures the node is EJECTED for
//     EjectFor: reads stop preferring it (alternate replicas are tried
//     first; an ejected node is only attempted as a last resort when
//     every replica of its group is ejected too), and writes to its
//     group fail fast with ErrNodeDown instead of risking replica
//     divergence;
//   - ejection expires by itself: after EjectFor the node is eligible
//     again, and the next success clears the failure count while the
//     next failure re-ejects it immediately.
//
// The prober uses GET /v1/epoch — the cheapest stateless read a member
// serves, doubling as the remote end of the epoch change feed — so an
// idle gateway discovers both failures and recoveries without waiting
// for traffic to stumble over them.

import (
	"context"
	"time"

	"repro/internal/merge"
)

// markFailed records one failed interaction with the node, ejecting it
// once the consecutive-failure threshold is reached. The first
// ejection of an episode (zero → non-zero deadline) bumps the
// ejections counter and emits a structured event; extending an
// existing window does not.
func (c *Cluster) markFailed(n *node) {
	n.mu.Lock()
	n.fails++
	fails := n.fails
	ejected := false
	var deadline time.Time
	if fails >= c.cfg.EjectAfter {
		ejected = n.ejectedUntil.IsZero()
		deadline = time.Now().Add(c.cfg.EjectFor)
		n.ejectedUntil = deadline
	}
	n.mu.Unlock()
	if ejected {
		c.ejections.Add(1)
		c.log.Warn("member ejected",
			"node", n.addr,
			"consecutive_failures", fails,
			"eject_deadline", deadline)
	}
}

// markUp records one successful interaction, clearing failure state.
// A success on a node with a standing ejection window — expired or
// not — closes the episode: recoveries bumps and an event is emitted.
func (c *Cluster) markUp(n *node) {
	n.mu.Lock()
	recovered := !n.ejectedUntil.IsZero()
	fails := n.fails
	n.fails = 0
	n.ejectedUntil = time.Time{}
	n.mu.Unlock()
	if recovered {
		c.recoveries.Add(1)
		c.log.Info("member recovered",
			"node", n.addr,
			"consecutive_failures", fails)
	}
}

// isEjected reports whether the node is inside an ejection window.
func (n *node) isEjected() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Now().Before(n.ejectedUntil)
}

// Nodes returns the number of member nodes configured.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Ejected returns how many member nodes are currently ejected.
func (c *Cluster) Ejected() int {
	out := 0
	for _, n := range c.nodes {
		if n.isEjected() {
			out++
		}
	}
	return out
}

// ReadFailovers returns how many reads succeeded only after failing
// over from a preferred replica to an alternate — the operator-facing
// signal that a group is limping on reduced redundancy.
func (c *Cluster) ReadFailovers() int64 { return c.failovers.Load() }

// Ejections returns how many ejection episodes have begun — each a
// healthy→ejected transition, not a window extension.
func (c *Cluster) Ejections() int64 { return c.ejections.Load() }

// Recoveries returns how many ejection episodes have ended with the
// node answering again.
func (c *Cluster) Recoveries() int64 { return c.recoveries.Load() }

// startProber launches the background health loop when the config asks
// for one. Called once from New before the cluster is shared.
func (c *Cluster) startProber() {
	if c.cfg.HealthInterval <= 0 {
		return
	}
	c.probeStop = make(chan struct{})
	c.probeDone = make(chan struct{})
	go func() {
		defer close(c.probeDone)
		tick := time.NewTicker(c.cfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-c.probeStop:
				return
			case <-tick.C:
				c.probeAll()
			}
		}
	}()
}

// probeAll health-checks every node once, in parallel, each under the
// configured request timeout.
func (c *Cluster) probeAll() {
	fns := make([]func(), 0, len(c.nodes))
	for _, n := range c.nodes {
		n := n
		fns = append(fns, func() {
			ctx, cancel := c.callCtx(context.Background())
			defer cancel()
			if err := n.probe(ctx); err != nil {
				c.markFailed(n)
			} else {
				c.markUp(n)
			}
		})
	}
	merge.Parallel(fns)
}

// Close stops the background health prober, if one was started, and
// releases pooled connections. Idempotent; the cluster keeps serving
// after Close — only the timer-driven probing stops.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		if c.probeStop != nil {
			close(c.probeStop)
			<-c.probeDone
		}
		if t, ok := c.transport.(interface{ CloseIdleConnections() }); ok {
			t.CloseIdleConnections()
		}
	})
	return nil
}
