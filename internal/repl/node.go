// Node unifies a data node's replication roles under one manager so the
// control plane can drive role transitions over the wire (DESIGN.md §17):
// a primary owns a Shipper, a replica owns an Applier, and a promoted
// replica owns both — its Applier keeps the fencing epoch it was promoted
// with, and CmdReplAttach gives it a Shipper so the shard can be
// re-protected by bootstrapping a fresh spare through the existing
// snapshot path. The Node decides writability (promoted and not fenced)
// and renders the repl_* stats lines the supervisor's lag monitor reads.
package repl

import (
	"fmt"
	"sync"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/proto"
	"shieldstore/internal/sim"
)

// NodeOptions configures a replication role manager.
type NodeOptions struct {
	// Link builds dial options for a replica endpoint this node is told
	// to ship to (CmdReplAttach names only an address; the deployment
	// knows how to attest its own members). Required for Attach.
	Link func(addr string) client.Options
	// Epoch is the initial fencing epoch for a node without an applier
	// (a plain primary); default 1. Nodes with an applier take their
	// epoch from it — promotion updates it.
	Epoch uint64
	// Faults arms the flaky-replication-link injection points on any
	// shipper Attach creates.
	Faults *fault.Plane
	// Logf receives background shipping/attach failures.
	Logf func(format string, args ...any)
}

// Node is one data node's replication role state. Wire Writable into
// server.Config.Writable and Attach into server.Config.Attach; pass the
// node's boot-time shipper (primary) and/or applier (replica) in.
type Node struct {
	p    *core.Partitioned
	opts NodeOptions

	mu      sync.Mutex
	shipper *Shipper
	applier *Applier
}

// NewNode builds the role manager. shipper and applier may each be nil:
// a fresh primary has only a shipper (or neither, unreplicated), a fresh
// replica only an applier.
func NewNode(p *core.Partitioned, shipper *Shipper, applier *Applier, opts NodeOptions) *Node {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	return &Node{p: p, opts: opts, shipper: shipper, applier: applier}
}

// Shipper returns the node's current shipper (nil until the node ships).
func (n *Node) Shipper() *Shipper {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.shipper
}

// Applier returns the node's applier (nil on a pure primary).
func (n *Node) Applier() *Applier { return n.applier }

// Writable gates mutations: a replica must be promoted, and a shipping
// node must not have been fenced out by a newer epoch. Wire into
// server.Config.Writable.
func (n *Node) Writable() bool {
	n.mu.Lock()
	sh := n.shipper
	n.mu.Unlock()
	if n.applier != nil && !n.applier.Writable() {
		return false
	}
	return sh == nil || !sh.Fenced()
}

// Epoch is the node's current fencing epoch — the applier's when the
// node has one (promotion advances it), the configured epoch otherwise.
func (n *Node) Epoch() uint64 {
	if n.applier != nil {
		return n.applier.Epoch()
	}
	return n.opts.Epoch
}

// Attach (re)targets the node's replication stream at addr — the
// server-side of CmdReplAttach, the control plane's re-protection step
// after a failover leaves a promoted ex-replica serving unprotected. A
// node that already ships simply migrates its stream (full bootstrap at
// the new target); a node that never shipped builds a Shipper at the
// node's current epoch and tees it into every partition's live journal
// before streaming. An unpromoted replica refuses: it must never ship a
// stream of its own while it is an apply target.
//
//ss:xpart — installs the shipper tee on each worker via RunCtl.
func (n *Node) Attach(addr string) uint8 {
	if n.opts.Link == nil {
		return proto.StatusError
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.applier != nil && !n.applier.Writable() {
		return proto.StatusError
	}
	epoch := n.opts.Epoch
	if n.applier != nil {
		epoch = n.applier.Epoch()
	}
	link := n.opts.Link(addr)
	if n.shipper != nil {
		n.shipper.SetEpoch(epoch)
		n.shipper.MigrateTo(addr, link)
		return proto.StatusOK
	}
	sh := NewShipper(n.p, ShipperOptions{
		Addr:   addr,
		Link:   link,
		Epoch:  epoch,
		Faults: n.opts.Faults,
		Logf:   n.opts.Logf,
	})
	for i := 0; i < n.p.Parts(); i++ {
		part := i
		n.p.RunCtl(part, func(st *core.WorkerState) {
			st.Journal = sh.Tee(part, st.Journal)
		})
	}
	n.shipper = sh
	sh.Start()
	// The target is a fresh spare with none of this node's history:
	// always bootstrap, never assume the chains line up.
	sh.MigrateTo(addr, link)
	return proto.StatusOK
}

// StatsLines renders the node's replication state as "name=value" lines
// for the server's CmdStats answer — the wire surface of satellite
// visibility: watermark lag, sync/fence flags, role and epoch, and the
// sender's round trips and cycles (frames per payload is
// Δrepl_assigned / Δrepl_payloads).
func (n *Node) StatsLines() []string {
	n.mu.Lock()
	sh := n.shipper
	n.mu.Unlock()
	role := "primary"
	if n.applier != nil {
		role = "replica"
		if n.applier.Writable() {
			role = "promoted"
		}
	}
	lines := []string{
		"repl_role=" + role,
		fmt.Sprintf("repl_epoch=%d", n.Epoch()),
	}
	if sh != nil {
		st := sh.Stats()
		lines = append(lines,
			fmt.Sprintf("repl_acked=%d", st.Acked),
			fmt.Sprintf("repl_assigned=%d", st.Assigned),
			fmt.Sprintf("repl_payloads=%d", st.Sender.Events[sim.CtrNetMessage]),
			fmt.Sprintf("repl_send_cycles=%d", st.Sender.Cycles),
			fmt.Sprintf("repl_lag=%d", st.Lag()),
			"repl_synced="+b2s(st.Synced),
			"repl_fenced="+b2s(st.Fenced),
			"repl_bootstrapping="+b2s(st.Bootstrapping),
		)
	}
	if n.applier != nil {
		lines = append(lines, fmt.Sprintf("repl_watermark=%d", n.applier.Watermark()))
	}
	return lines
}

// Close retires the node's replication engines in dependency order:
// shipper first (it drives RunCtl against the live pool), then the
// applier's chain key. Call before Partitioned.Stop.
func (n *Node) Close() {
	n.mu.Lock()
	sh := n.shipper
	n.shipper = nil
	n.mu.Unlock()
	if sh != nil {
		sh.Close()
	}
	if n.applier != nil {
		n.applier.Close()
	}
}

func b2s(v bool) string {
	if v {
		return "1"
	}
	return "0"
}
