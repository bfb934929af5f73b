package fleet

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/server"
)

// promote records a served cell's bytes in the shared tier. An empty
// body is never cached.
func (c *Coordinator) promote(key string, body []byte) {
	if len(body) > 0 {
		c.tier.Add(key, body)
	}
}

// tierLookup is the failover path's recompute-avoidance check: the
// coordinator's own tier first, then each surviving worker's result
// cache over GET /v1/cache/{key}. Peer fetches are opportunistic — a
// short per-fetch timeout, and a failure never touches the peer's
// breaker or health (the probe loop owns liveness) — because the
// fallback is merely recomputing, not failing the cell. A peer hit is
// promoted into the local tier so the next failover of the same cell is
// a local hit. Returns the bytes and a worker label for attribution.
func (c *Coordinator) tierLookup(ctx context.Context, key string) ([]byte, string, bool) {
	if body, ok := c.tier.Get(key); ok {
		c.Stats.Inc("fleet/cache_hits")
		c.Stats.Inc("fleet/cache_local_hits")
		c.Stats.Inc("fleet/recompute_avoided")
		return body, "fleet-cache", true
	}
	now := time.Now()
	for _, w := range c.members.all() {
		// Only ask peers we would be willing to dispatch to: a worker that
		// is unhealthy, inside a Retry-After window, or behind an open
		// breaker told us to stay away, and an opportunistic cache probe is
		// still traffic.
		if !w.healthy.Load() || w.backedOff(now) || w.brk.State() != server.BreakerClosed {
			continue
		}
		body, ok := c.peerFetch(ctx, w, key)
		if !ok {
			continue
		}
		c.promote(key, body)
		c.Stats.Inc("fleet/cache_hits")
		c.Stats.Inc("fleet/cache_peer_hits")
		c.Stats.Inc("fleet/recompute_avoided")
		return body, "peer-cache:" + w.addr, true
	}
	c.Stats.Inc("fleet/cache_misses")
	return nil, "", false
}

// peerFetch asks one worker's result cache for key. Only a 200 counts;
// 404 means the worker has not finished computing the cell, and any
// transport error is ignored — this path must never make a failover
// slower than just recomputing.
func (c *Coordinator) peerFetch(ctx context.Context, w *worker, key string) ([]byte, bool) {
	fctx, cancel := context.WithTimeout(ctx, peerFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, w.base+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false
	}
	c.Stats.Inc("fleet/peer_fetches")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.MaxBodyBytes()))
	if err != nil || len(body) == 0 {
		return nil, false
	}
	return body, true
}
