package cluster

import (
	"encoding/json"
	"fmt"
	"os"

	"bayeslsh"
	"bayeslsh/internal/snapshot"
)

// manifest is the JSON cluster-snapshot descriptor SaveFile writes at
// the manifest path: the partition plan plus the router's id state.
// The shard corpora themselves are ordinary live snapshots at
// "<path>.<i>", so a single shard file is independently loadable by a
// per-shard daemon (apss serve -index) while the manifest reassembles
// the whole cluster.
type manifest struct {
	Version int     `json:"version"`
	Plan    Plan    `json:"plan"`
	Next    int     `json:"next"`
	RR      int     `json:"rr"`
	Added   [][]int `json:"added"`
}

const manifestVersion = 1

// shardPath names shard i's snapshot under a manifest path.
func shardPath(path string, i int) string { return fmt.Sprintf("%s.%d", path, i) }

// SaveFile writes a consistent cluster snapshot: one live snapshot
// per shard at "<path>.<i>" plus a JSON manifest at path recording
// the plan and id state, written atomically (snapshot.WriteFile: a
// synced temp file renamed into place) so a crash never leaves a
// half-written manifest pointing at shard files.
// Mutations are blocked for the duration (queries keep serving), so
// the cut is mutation-consistent across shards. LoadLocal restores
// it. With HTTP backends the shard snapshots are written on each
// shard's own host (the /v1/save contract) and only the manifest is
// local.
func (r *Router) SaveFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.backends {
		if err := b.SaveFile(shardPath(path, i)); err != nil {
			return fmt.Errorf("cluster: save shard %d: %w", i, err)
		}
	}
	m := manifest{Version: manifestVersion, Plan: r.plan, Next: r.next, RR: r.rr, Added: r.added}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encode manifest: %w", err)
	}
	err = snapshot.WriteFile(path, func(f *os.File) error {
		_, err := f.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	return nil
}

// LoadLocal restores a cluster snapshot written by SaveFile into a
// router over in-process LiveIndex shards: the manifest fixes the
// plan and id state, each shard file loads through OpenLiveFile (so a
// shard saved as a disk-servable v3 snapshot restores in O(pages
// touched), mmap-backed, and v1/v2 shard files heap-load as before), and
// every shard is cross-checked against the manifest (its next local
// id must equal seed range + recorded adds) so a swapped, stale or
// truncated shard file is refused here instead of mistranslating ids
// at query time.
func LoadLocal(path string, lc bayeslsh.LiveConfig, cfg Config) (*Router, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("cluster: manifest %s version %d, want %d", path, m.Version, manifestVersion)
	}
	p := m.Plan
	if p.Shards < 1 || len(p.Ranges) != p.Shards || len(p.Tokens) != p.Shards || len(m.Added) != p.Shards {
		return nil, fmt.Errorf("cluster: manifest %s: inconsistent plan (%d shards, %d ranges, %d tokens, %d add lists)",
			path, p.Shards, len(p.Ranges), len(p.Tokens), len(m.Added))
	}
	added := 0
	for _, a := range m.Added {
		added += len(a)
	}
	if m.Next != p.Ranges[p.Shards-1].Hi+added {
		return nil, fmt.Errorf("cluster: manifest %s: next id %d does not match %d seed + %d added vectors",
			path, m.Next, p.Ranges[p.Shards-1].Hi, added)
	}
	backends := make([]Backend, 0, p.Shards)
	fail := func(err error) (*Router, error) {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	for i := 0; i < p.Shards; i++ {
		li, err := bayeslsh.OpenLiveFile(shardPath(path, i), lc)
		if err != nil {
			return fail(fmt.Errorf("cluster: load shard %d: %w", i, err))
		}
		if got, want := li.Stats().NextID, (p.Ranges[i].Hi-p.Ranges[i].Lo)+len(m.Added[i]); got != want {
			li.Close()
			return fail(fmt.Errorf("cluster: shard file %s: next local id %d, manifest expects %d — stale or swapped shard snapshot",
				shardPath(path, i), got, want))
		}
		backends = append(backends, li)
	}
	ref := backends[0].(*bayeslsh.LiveIndex)
	r := newRouter(backends, p, ref.Measure(), ref.Options(), ref.Dim(), cfg)
	r.next = m.Next
	r.rr = m.RR
	r.added = m.Added
	for s, ids := range m.Added {
		seedN := p.Ranges[s].Hi - p.Ranges[s].Lo
		for k, gid := range ids {
			r.loc[gid] = shardLoc{shard: s, local: seedN + k}
		}
	}
	return r, nil
}
