package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

var nodes = []string{
	"http://10.0.0.1:8080",
	"http://10.0.0.2:8080",
	"http://10.0.0.3:8080",
}

func clusterAt(t *testing.T, selfIdx int) *Cluster {
	t.Helper()
	var peers []string
	for i, n := range nodes {
		if i != selfIdx {
			peers = append(peers, n)
		}
	}
	c, err := New(Config{Self: nodes[selfIdx], Peers: peers})
	if err != nil {
		t.Fatalf("New(self=%d): %v", selfIdx, err)
	}
	return c
}

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestRingAgreement: every replica computes the same owner for every key,
// regardless of which node is "self" — the property that makes routing by
// key converge on one warm replica.
func TestRingAgreement(t *testing.T) {
	cs := []*Cluster{clusterAt(t, 0), clusterAt(t, 1), clusterAt(t, 2)}
	for i := 0; i < 500; i++ {
		k := key(i)
		owner0, _ := cs[0].Owner(k)
		for n, c := range cs {
			owner, self := c.Owner(k)
			if owner != owner0 {
				t.Fatalf("key %d: replica %d says owner %s, replica 0 says %s", i, n, owner, owner0)
			}
			if self != (owner == nodes[n]) {
				t.Fatalf("key %d: replica %d self flag inconsistent", i, n)
			}
		}
	}
}

// TestRingBalance: virtual nodes spread keys across the replicas; no
// replica owns a wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	c := clusterAt(t, 0)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		owner, _ := c.Owner(key(i))
		counts[owner]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 replicas own keys: %v", len(counts), counts)
	}
	for node, got := range counts {
		share := float64(got) / n
		if share < 0.15 || share > 0.55 {
			t.Fatalf("replica %s owns %.1f%% of keys, want a roughly balanced ring: %v",
				node, share*100, counts)
		}
	}
}

// TestSingleNode: a peerless cluster is disabled and owns everything.
func TestSingleNode(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New(empty): %v", err)
	}
	if c.Enabled() {
		t.Fatal("peerless cluster reports enabled")
	}
	owner, self := c.Owner(key(1))
	if !self || owner != "" {
		t.Fatalf("Owner = %q, self=%v; want local ownership", owner, self)
	}
}

func TestNormalizeURL(t *testing.T) {
	good := map[string]string{
		"http://a:8080":    "http://a:8080",
		"http://a:8080/":   "http://a:8080",
		" https://b/base/": "https://b/base",
	}
	for in, want := range good {
		got, err := NormalizeURL(in)
		if err != nil || got != want {
			t.Fatalf("NormalizeURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ftp://a", "a:8080x", "http://", "http://a?x=1"} {
		if got, err := NormalizeURL(bad); err == nil {
			t.Fatalf("NormalizeURL(%q) accepted: %q", bad, got)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Self: "", Peers: []string{"http://b:1"}}); err == nil {
		t.Fatal("peers without self accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"nota url"}}); err == nil {
		t.Fatal("invalid peer URL accepted")
	}
	// Self listed among peers is tolerated (dropped), duplicates deduped.
	c, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1", "http://b:1/"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Peers(); len(got) != 1 || got[0] != "http://b:1" {
		t.Fatalf("Peers = %v, want deduped [http://b:1]", got)
	}
}

// TestHealthBackoff: failures push a peer into exponentially growing
// backoff; success resets it; Usable turns true again once the backoff
// elapses so the next request doubles as the probe.
func TestHealthBackoff(t *testing.T) {
	c := clusterAt(t, 0)
	peer := c.Peers()[0]
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	if !c.Usable(peer) {
		t.Fatal("fresh peer not usable")
	}
	c.ReportFailure(peer)
	if c.Usable(peer) {
		t.Fatal("peer usable immediately after failure")
	}
	if st := c.Stats(); st.Unhealthy != 1 {
		t.Fatalf("Stats.Unhealthy = %d, want 1", st.Unhealthy)
	}
	now = now.Add(time.Second) // backoffMin is 1s
	if !c.Usable(peer) {
		t.Fatal("peer not usable after first backoff elapsed")
	}
	// Second consecutive failure doubles the backoff.
	c.ReportFailure(peer)
	now = now.Add(time.Second)
	if c.Usable(peer) {
		t.Fatal("second failure did not double the backoff")
	}
	now = now.Add(time.Second)
	if !c.Usable(peer) {
		t.Fatal("peer not usable after doubled backoff")
	}
	c.ReportSuccess(peer)
	c.ReportFailure(peer)
	now = now.Add(time.Second)
	if !c.Usable(peer) {
		t.Fatal("success did not reset the failure streak")
	}
	// Backoff saturates at backoffMax (30s) instead of overflowing.
	for i := 0; i < 64; i++ {
		c.ReportFailure(peer)
	}
	now = now.Add(30 * time.Second)
	if !c.Usable(peer) {
		t.Fatal("backoff exceeded backoffMax")
	}

	// Unknown peers are never usable and never tracked.
	if c.Usable("http://stranger:1") {
		t.Fatal("unknown peer usable")
	}
	c.ReportFailure("http://stranger:1")
	c.ReportSuccess("http://stranger:1")
}
