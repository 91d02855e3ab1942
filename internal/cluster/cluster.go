// Package cluster implements multi-replica membership for amnesiacd: a
// consistent-hash ring that assigns every content-addressed job key an
// owning replica, plus per-peer health tracking with exponential backoff.
//
// The ring is static (replicas are configured with -peers at start; there
// is no gossip or dynamic membership) and deterministic: every replica that
// is configured with the same node set — its own advertised URL plus its
// peers' — computes the same owner for every key, so a job submitted to any
// replica routes to the one replica whose result cache and prepared-image
// cache are warm for that key. Virtual nodes smooth the key distribution.
//
// Health is tracked lazily: a peer is assumed healthy until a request to it
// fails, then it is held in backoff (doubling from backoffMin to
// backoffMax) before the next attempt. Ownership does NOT move when a peer
// is unhealthy — the serving layer degrades by executing the key locally —
// so a flapping peer never causes two replicas to fight over a key range,
// and a recovered peer resumes exactly its old range.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config describes this replica's view of the replica set.
type Config struct {
	// Self is this replica's advertised base URL (e.g. "http://10.0.0.1:8080").
	// It must be the exact string the other replicas list in their Peers, or
	// the rings disagree. Required when Peers is non-empty.
	Self string
	// Peers are the other replicas' base URLs (Self excluded).
	Peers []string
}

// ProbeTimeout bounds a control-plane request to a peer: a proxied
// submission that does not wait for its job, or a proxied report fetch.
const ProbeTimeout = 5 * time.Second

const (
	vnodes     = 64               // ring points per replica
	backoffMin = time.Second      // unhealthy-peer backoff after one failure
	backoffMax = 30 * time.Second // cap on the doubling backoff
)

// Stats is a snapshot for /metrics.
type Stats struct {
	Nodes     int // ring size including self
	Peers     int
	Unhealthy int // peers currently in backoff
}

type peerState struct {
	failures  int
	downUntil time.Time
}

// Cluster is one replica's membership state. Safe for concurrent use.
type Cluster struct {
	self   string
	peers  []string // normalized, stable order
	client *http.Client

	ring   []ringPoint
	mu     sync.Mutex
	health map[string]*peerState
	now    func() time.Time // injectable for tests
}

type ringPoint struct {
	hash uint64
	node string
}

// New validates the member URLs and builds the ring. A Config with no peers
// yields a single-node cluster: Enabled() is false and Owner always answers
// self, so the serving layer's cluster paths become no-ops.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{
		client: &http.Client{},
		health: make(map[string]*peerState),
		now:    time.Now,
	}
	if len(cfg.Peers) == 0 {
		return c, nil
	}
	self, err := NormalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	c.self = self
	seen := map[string]bool{self: true}
	for _, p := range cfg.Peers {
		u, err := NormalizeURL(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if seen[u] {
			continue // self listed among peers, or duplicate
		}
		seen[u] = true
		c.peers = append(c.peers, u)
		c.health[u] = &peerState{}
	}
	nodes := append([]string{self}, c.peers...)
	c.ring = buildRing(nodes)
	return c, nil
}

// NormalizeURL canonicalizes a replica base URL: http/https scheme, a host,
// no query/fragment, trailing slash stripped. Replica identity is string
// equality of normalized URLs.
func NormalizeURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("scheme must be http or https, got %q", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host in %q", raw)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("base URL %q must not carry query or fragment", raw)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	return u.String(), nil
}

func buildRing(nodes []string) []ringPoint {
	ring := make([]ringPoint, 0, len(nodes)*vnodes)
	for _, node := range nodes {
		for i := 0; i < vnodes; i++ {
			ring = append(ring, ringPoint{hash: hash64(fmt.Sprintf("%s\x00%d", node, i)), node: node})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].node < ring[j].node // deterministic on (vanishing) collisions
	})
	return ring
}

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Enabled reports whether this replica actually has peers.
func (c *Cluster) Enabled() bool { return c != nil && len(c.peers) > 0 }

// Self returns this replica's normalized advertised URL ("" when disabled).
func (c *Cluster) Self() string {
	if c == nil {
		return ""
	}
	return c.self
}

// Peers returns the peer URLs in stable order.
func (c *Cluster) Peers() []string {
	if c == nil {
		return nil
	}
	return append([]string(nil), c.peers...)
}

// Client returns the shared HTTP client for replica-to-replica calls.
// Callers bound each request with a context; the client itself has no
// global timeout so proxied ?wait=1 submissions can outlive ProbeTimeout.
func (c *Cluster) Client() *http.Client { return c.client }

// Owner returns the replica owning key and whether that is this replica.
// With no peers every key is owned locally.
func (c *Cluster) Owner(key string) (node string, self bool) {
	if !c.Enabled() {
		return c.Self(), true
	}
	h := hash64(key)
	// First ring point clockwise from h (wrapping).
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0
	}
	node = c.ring[i].node
	return node, node == c.self
}

// Usable reports whether peer should be sent a request now: healthy, or
// unhealthy but past its backoff (the next request doubles as the probe).
func (c *Cluster) Usable(peer string) bool {
	if peer == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.health[peer]
	if !ok {
		return false
	}
	return !c.now().Before(st.downUntil)
}

// ReportSuccess clears peer's failure state.
func (c *Cluster) ReportSuccess(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.health[peer]; ok {
		st.failures = 0
		st.downUntil = time.Time{}
	}
}

// ReportFailure records a failed request to peer and extends its backoff
// exponentially: backoffMin after the first failure, doubling to backoffMax.
func (c *Cluster) ReportFailure(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.health[peer]
	if !ok {
		return
	}
	st.failures++
	backoff := backoffMin << (st.failures - 1)
	if st.failures > 30 || backoff > backoffMax || backoff <= 0 {
		backoff = backoffMax
	}
	st.downUntil = c.now().Add(backoff)
}

// Stats snapshots membership health.
func (c *Cluster) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Peers: len(c.peers)}
	if c.Enabled() {
		st.Nodes = len(c.peers) + 1
	}
	c.mu.Lock()
	now := c.now()
	for _, ps := range c.health {
		if now.Before(ps.downUntil) {
			st.Unhealthy++
		}
	}
	c.mu.Unlock()
	return st
}
