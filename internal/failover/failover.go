// Package failover supervises a replicated ordod cluster through leader
// death: it detects a silent leader by replication-heartbeat loss,
// elects the most-caught-up follower, and fences the old regime with a
// monotonically increasing epoch so a rejoining ex-leader can never serve
// or replicate state the new regime did not inherit (DESIGN.md §15).
//
// The design is deliberately minimal — crash-stop failures, at most one
// node down at a time, a static priority-ordered peer list, no network
// partitions. Under that model the safety argument is: every acknowledged
// write is covered by a follower WALACK (the server's replication-ack
// gate) or was written while no follower was subscribed; the election
// winner is the follower with the greatest (epoch, incarnation, seq)
// position among live peers, which therefore holds every gated ack; the
// winner stores the bumped epoch in its regime record (repl.RegimeFile)
// before serving a single write, so any frame or subscription from the old
// regime is rejected by epoch comparison from then on; and a fenced
// ex-leader truncates its unshipped suffix — records no ack depended on —
// back to the winner's takeover cursor before it resubscribes.
package failover

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"ordo/internal/wire"
)

// Peer is one cluster member: its replication listener and its
// client-facing serving address. The slice order is the election
// tie-break priority (index 0 leads a cold cluster).
type Peer struct {
	Repl   string `json:"repl"`
	Client string `json:"client"`
}

// ParsePeers parses the -peers flag form "repl@client,repl@client,...".
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		i := strings.LastIndexByte(part, '@')
		if i <= 0 || i == len(part)-1 {
			return nil, fmt.Errorf("failover: peer %q is not repl-addr@client-addr", part)
		}
		peers = append(peers, Peer{Repl: part[:i], Client: part[i+1:]})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("failover: empty peer list")
	}
	return peers, nil
}

// Probe dials a peer's replication listener, sends a STATUS hello and
// returns the answer: role, epoch, stream or cursor position, regime
// start and serving address. One bounded round trip; any failure means
// "treat the peer as dead for this round". The hello carries epoch 0 —
// a probe observes, it does not announce.
func Probe(addr string, timeout time.Duration) (wire.ReplMsg, error) {
	return exchange(addr, &wire.ReplMsg{Kind: wire.ReplStatus}, timeout)
}

// Announce performs the same STATUS exchange as Probe but stamps the
// caller's regime — epoch, role and client address — on the hello, so the
// peer learns of the new regime the moment it is announced instead of at
// its next probe or stream frame. A freshly promoted leader announces to
// every peer; a stale leader that receives one demotes itself in place.
func Announce(addr string, self *wire.ReplMsg, timeout time.Duration) (wire.ReplMsg, error) {
	return exchange(addr, self, timeout)
}

func exchange(addr string, hello *wire.ReplMsg, timeout time.Duration) (wire.ReplMsg, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return wire.ReplMsg{}, err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(timeout))
	p, err := wire.AppendReplMsg(nil, hello)
	if err != nil {
		return wire.ReplMsg{}, err
	}
	if err := wire.WriteReplFrame(nc, p); err != nil {
		return wire.ReplMsg{}, err
	}
	m, _, err := wire.ReadReplHello(bufio.NewReaderSize(nc, 4<<10), nil)
	if err != nil {
		return wire.ReplMsg{}, err
	}
	if m.Kind != wire.ReplStatus && m.Kind != wire.ReplReject {
		return wire.ReplMsg{}, fmt.Errorf("failover: probe of %s answered %v", addr, m.Kind)
	}
	return m, nil
}
