package failover

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" 127.0.0.1:7611@127.0.0.1:7601 ,127.0.0.1:7612@127.0.0.1:7602,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("got %d peers, want 2", len(peers))
	}
	if peers[0].Repl != "127.0.0.1:7611" || peers[0].Client != "127.0.0.1:7601" {
		t.Fatalf("peer 0 = %+v", peers[0])
	}
	// An IPv6 replication address keeps its colons: the LAST @ splits.
	peers, err = ParsePeers("[::1]:7611@[::1]:7601")
	if err != nil {
		t.Fatal(err)
	}
	if peers[0].Repl != "[::1]:7611" || peers[0].Client != "[::1]:7601" {
		t.Fatalf("ipv6 peer = %+v", peers[0])
	}
	for _, bad := range []string{"", ",,", "noseparator", "@client", "repl@"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted malformed input", bad)
		}
	}
}

// storeRegime seeds dir's regime record with g, as an earlier run of the
// node would have left it.
func storeRegime(t *testing.T, dir string, g repl.Regime) {
	t.Helper()
	rec, err := repl.OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Store(g); err != nil {
		t.Fatal(err)
	}
}

// mustDecide runs Decide, failing on error, and closes the record it
// returns at cleanup.
func mustDecide(t *testing.T, cfg BootstrapConfig) *Bootstrap {
	t.Helper()
	b, err := Decide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Record.Close() })
	return b
}

// decideOffline runs Decide against peers that are all unreachable (ports
// from the reserved TEST-NET range never answer on loopback in time). The
// resume grace is kept short so ex-leader tests stay fast.
func decideOffline(t *testing.T, dir string, index int) *Bootstrap {
	t.Helper()
	return mustDecide(t, BootstrapConfig{
		Dir:   dir,
		Index: index,
		Peers: []Peer{
			{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"},
			{Repl: "127.0.0.1:3", Client: "127.0.0.1:4"},
			{Repl: "127.0.0.1:5", Client: "127.0.0.1:6"},
		},
		DialTimeout: 50 * time.Millisecond,
		ResumeGrace: 50 * time.Millisecond,
	})
}

// fakePeer is a minimal replication listener: every connection gets its
// hello read and one configurable STATUS answer back.
type fakePeer struct {
	ln  net.Listener
	mu  sync.Mutex
	msg wire.ReplMsg
}

func startFakePeer(t *testing.T, initial wire.ReplMsg) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, msg: initial}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, _, err := wire.ReadReplHello(bufio.NewReaderSize(nc, 4<<10), nil); err != nil {
					return
				}
				p.mu.Lock()
				m := p.msg
				p.mu.Unlock()
				buf, err := wire.AppendReplMsg(nil, &m)
				if err != nil {
					return
				}
				_ = wire.WriteReplFrame(nc, buf)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *fakePeer) set(m wire.ReplMsg) {
	p.mu.Lock()
	p.msg = m
	p.mu.Unlock()
}

func (p *fakePeer) addr() string { return p.ln.Addr().String() }

func TestDecideColdCluster(t *testing.T) {
	// Nobody answers, no history: index 0 leads at a fenced epoch, everyone
	// else follows the priority head.
	b := decideOffline(t, t.TempDir(), 0)
	if b.Role != server.RoleLeader || b.Epoch != 1 || b.LeaderIndex != 0 {
		t.Fatalf("cold index 0: %+v", b)
	}
	b = decideOffline(t, t.TempDir(), 2)
	if b.Role != server.RoleFollower || b.LeaderIndex != 0 {
		t.Fatalf("cold index 2: %+v", b)
	}
}

func TestDecideLeaderResume(t *testing.T) {
	// A restarting ex-leader with no competing regime resumes its own.
	dir := t.TempDir()
	storeRegime(t, dir, repl.Regime{Role: server.RoleLeader, Epoch: 5, Start: repl.Position{Inc: 1, Seq: 9}})
	b := decideOffline(t, dir, 1)
	if b.Role != server.RoleLeader || b.Epoch != 5 || b.LeaderIndex != 1 {
		t.Fatalf("leader resume: %+v", b)
	}
	// A multi-node resume cannot prove no concurrent election happened, so
	// it must boot with the ack gate held until a follower re-subscribes.
	if !b.Resumed {
		t.Fatal("multi-node leader resume did not set Resumed")
	}
	// The resumed regime keeps its start for fenced rejoiners.
	if g := b.Record.Load(); g.Role != server.RoleLeader || g.Start != (repl.Position{Inc: 1, Seq: 9}) {
		t.Fatalf("resumed regime recorded as %+v", g)
	}
}

func TestDecideResumeJoinsConcurrentElection(t *testing.T) {
	// A crashed leader restarts while the election its death triggered is
	// still in flight: the peer answers as a follower at the old epoch
	// first, then finishes promoting mid-grace. The re-probe loop must see
	// the new regime and join it instead of resuming the old one.
	dir := t.TempDir()
	storeRegime(t, dir, repl.Regime{Role: server.RoleLeader, Epoch: 5, Start: repl.Position{Inc: 1, Seq: 9}})
	peer := startFakePeer(t, wire.ReplMsg{Kind: wire.ReplStatus, Role: uint64(server.RoleFollower), Epoch: 5})
	flip := time.AfterFunc(150*time.Millisecond, func() {
		peer.set(wire.ReplMsg{Kind: wire.ReplStatus, Role: uint64(server.RoleLeader), Epoch: 6,
			PrevInc: 1, PrevSeq: 9, Addr: "127.0.0.1:7602"})
	})
	defer flip.Stop()
	b := mustDecide(t, BootstrapConfig{
		Dir:   dir,
		Index: 0,
		Peers: []Peer{
			{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"}, // self, never probed
			{Repl: peer.addr(), Client: "127.0.0.1:7602"},
			{Repl: "127.0.0.1:5", Client: "127.0.0.1:6"},
		},
		DialTimeout: 50 * time.Millisecond,
		ResumeGrace: 2 * time.Second,
	})
	if b.Role != server.RoleFollower || b.Epoch != 6 || b.LeaderIndex != 1 {
		t.Fatalf("concurrent election join: %+v", b)
	}
}

func TestDecideResumeRefusesHigherEpoch(t *testing.T) {
	// A peer proves a newer regime exists (epoch 9 > our 5) but its leader
	// never answers. Resuming would fork the cluster; following blindly has
	// no takeover cursor to truncate to. Decide must refuse to boot.
	dir := t.TempDir()
	storeRegime(t, dir, repl.Regime{Role: server.RoleLeader, Epoch: 5})
	peer := startFakePeer(t, wire.ReplMsg{Kind: wire.ReplStatus, Role: uint64(server.RoleFollower), Epoch: 9})
	_, err := Decide(BootstrapConfig{
		Dir:   dir,
		Index: 0,
		Peers: []Peer{
			{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"},
			{Repl: peer.addr(), Client: "127.0.0.1:7602"},
		},
		DialTimeout: 50 * time.Millisecond,
		ResumeGrace: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Decide resumed under a higher-epoch regime with no reachable leader")
	}
}

func TestDecideColdClusterFencesHistory(t *testing.T) {
	// Cold takeover over a log with regime history: the new leader must
	// bump PAST the recorded epoch, never reuse it.
	dir := t.TempDir()
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New(dev, nil)
	l.NewHandle().AppendAt(1, []byte("x"))
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.Close()
	storeRegime(t, dir, repl.Regime{Role: server.RoleFollower, Epoch: 4})
	b := decideOffline(t, dir, 0)
	if b.Role != server.RoleLeader || b.Epoch != 5 {
		t.Fatalf("cold takeover over epoch-4 history: %+v, want leader at epoch 5", b)
	}
}

// writeParentFormat lays out a WAL directory as builds before the regime
// record left it: a failover.json sidecar, a cursor.json cursor and a
// version 2 segment header carrying walEpoch. Empty strings skip a file.
func writeParentFormat(t *testing.T, dir, meta, cursor string, walEpoch uint64) {
	t.Helper()
	hdr := []byte("ORDOWAL1")
	hdr = binary.LittleEndian.AppendUint32(hdr, 2) // version 2: ... | epoch
	hdr = binary.LittleEndian.AppendUint64(hdr, 1) // incarnation
	hdr = binary.LittleEndian.AppendUint64(hdr, 1) // segment seq
	hdr = binary.LittleEndian.AppendUint64(hdr, walEpoch)
	files := map[string]string{"seg-00000001.wal": string(hdr), "failover.json": meta, "cursor.json": cursor}
	for name, body := range files {
		if body == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// requireNoLegacy fails if a converted directory still holds a legacy file.
func requireNoLegacy(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{"failover.json", "cursor.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s left behind after conversion: %v", name, err)
		}
	}
}

func TestDecideEpochFromAllSources(t *testing.T) {
	// A directory written before the regime record is converted by the
	// rule those builds booted with: the epoch is the max over sidecar,
	// WAL segment headers and follower cursor, so no regime marker can
	// regress it.
	dir := t.TempDir()
	writeParentFormat(t, dir, `{"role":"follower","epoch":3,"prev_inc":0,"prev_seq":0}`,
		`{"inc":1,"seq":1,"epoch":4}`, 7)
	b := decideOffline(t, dir, 2)
	if b.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7 (WAL header wins the max)", b.Epoch)
	}
	if b.Role != server.RoleFollower {
		t.Fatalf("role = %v, want follower", b.Role)
	}
	requireNoLegacy(t, dir)
	// The cursor dates from epoch 4: in the epoch 7 leader's coordinates
	// it means nothing.
	if g := b.Record.Load(); g != (repl.Regime{Role: server.RoleFollower, Epoch: 7}) {
		t.Fatalf("converted regime %+v", g)
	}
}

func TestDecideConvertsParentFormat(t *testing.T) {
	// An ex-leader's parent-format directory resumes exactly as it did
	// before the record: leader at its sidecar epoch, regime start kept.
	dir := t.TempDir()
	writeParentFormat(t, dir, `{"role":"leader","epoch":5,"prev_inc":1,"prev_seq":9}`, `{"inc":1,"seq":3,"epoch":4}`, 5)
	b := decideOffline(t, dir, 1)
	if b.Role != server.RoleLeader || b.Epoch != 5 || b.LeaderIndex != 1 || !b.Resumed || b.Truncated != 0 {
		t.Fatalf("parent-format leader resume: %+v", b)
	}
	if g := b.Record.Load(); g.Start != (repl.Position{Inc: 1, Seq: 9}) {
		t.Fatalf("converted regime start %+v, want (1, 9)", g.Start)
	}
	requireNoLegacy(t, dir)

	// A follower's directory whose cursor is in its epoch's coordinates
	// keeps it.
	dir = t.TempDir()
	writeParentFormat(t, dir, `{"role":"follower","epoch":2,"prev_inc":0,"prev_seq":0}`, `{"inc":2,"seq":478,"epoch":2}`, 2)
	b = decideOffline(t, dir, 1)
	if b.Role != server.RoleFollower || b.Epoch != 2 || b.LeaderIndex != 0 {
		t.Fatalf("parent-format follower: %+v", b)
	}
	if g := b.Record.Load(); g.Pos != (repl.Position{Inc: 2, Seq: 478}) {
		t.Fatalf("converted cursor %+v, want (2, 478)", g.Pos)
	}
	requireNoLegacy(t, dir)

	// A corrupt sidecar refuses the boot, as it always has, and is kept.
	dir = t.TempDir()
	writeParentFormat(t, dir, "{not json", "", 0)
	if _, err := Decide(BootstrapConfig{Dir: dir, Peers: []Peer{{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"}}}); err == nil {
		t.Fatal("Decide booted over a corrupt failover.json")
	}
	if _, err := os.Stat(filepath.Join(dir, "failover.json")); err != nil {
		t.Fatalf("refused conversion removed the sidecar: %v", err)
	}
}

func TestDecideRefusesCorruptRecord(t *testing.T) {
	// A record with no valid slot cannot tell which regime the node
	// served: refuse to boot rather than guess.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "regime"), make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Decide(BootstrapConfig{Dir: dir, Peers: []Peer{{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"}}})
	if !errors.Is(err, repl.ErrRegimeCorrupt) {
		t.Fatalf("Decide over a corrupt record: %v, want ErrRegimeCorrupt", err)
	}
}

func TestDecideNewerRegimeClearsCursor(t *testing.T) {
	// A follower that restarts into a newer regime holds a cursor in the
	// old leader's coordinates; the new leader would read it in its own
	// and skip records. Raising the epoch clears it, so the follower
	// resubscribes from the origin — a fenced ex-leader whose cursor dates
	// from an earlier follower stint too.
	for _, role := range []server.ReplRole{server.RoleFollower, server.RoleNone, server.RoleLeader} {
		dir := t.TempDir()
		storeRegime(t, dir, repl.Regime{Role: role, Epoch: 1, Pos: repl.Position{Inc: 2, Seq: 478}})
		peer := startFakePeer(t, wire.ReplMsg{Kind: wire.ReplStatus, Role: uint64(server.RoleLeader), Epoch: 2,
			PrevInc: 2, PrevSeq: 500, Addr: "127.0.0.1:7602"})
		b := mustDecide(t, BootstrapConfig{
			Dir:   dir,
			Index: 2,
			Peers: []Peer{
				{Repl: "127.0.0.1:1", Client: "127.0.0.1:2"},
				{Repl: peer.addr(), Client: "127.0.0.1:7602"},
				{Repl: "127.0.0.1:5", Client: "127.0.0.1:6"},
			},
			DialTimeout: 50 * time.Millisecond,
		})
		if b.Role != server.RoleFollower || b.Epoch != 2 || b.LeaderIndex != 1 {
			t.Fatalf("%v joining a newer regime: %+v", role, b)
		}
		if g := b.Record.Load(); g != (repl.Regime{Role: server.RoleFollower, Epoch: 2}) {
			t.Fatalf("%v joining a newer regime recorded %+v, want epoch 2 at the origin", role, g)
		}
	}
}
