package shuffle

// The exchange's one seam: a runStore is where sorted runs live between
// the wave that writes them and the wave that merges them. Every
// handler — map, repartition, reduce — reads and writes runs through
// it, so the object-storage and cache exchanges share one handler per
// role and differ only in the store their tasks carry.

import (
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// runStore holds the exchange's intermediate runs, addressed by key.
type runStore interface {
	// put writes one run, reporting whether it fell back to object
	// storage instead of the store's primary medium.
	put(ctx *faas.Ctx, key string, pl payload.Payload) (fellBack bool, err error)
	// open returns one chunk source per key, in key order; chunk is the
	// transfer granularity.
	open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error)
	// free deletes consumed runs; callers invoke it only once their
	// output is durable, so a retried attempt can still re-read them.
	free(ctx *faas.Ctx, keys []string) error
	// lost returns the indexes of keys whose runs died with their
	// storage and have no fallback copy — runs to regenerate.
	lost(p *des.Proc, client *objectstore.Client, keys []string) ([]int, error)
}

// storeRuns keeps runs as objects in a scratch bucket.
type storeRuns struct {
	bucket string
	// cleanup deletes consumed runs; otherwise scratch stays for the
	// bucket's lifecycle rules to reap.
	cleanup bool
}

func (s storeRuns) put(ctx *faas.Ctx, key string, pl payload.Payload) (bool, error) {
	return false, ctx.Store.Put(ctx.Proc, s.bucket, key, pl)
}

// open starts one chunked stream per run, so the transfers overlap
// each other and the merge CPU.
func (s storeRuns) open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error) {
	srcs := make([]runSource, 0, len(keys))
	for _, key := range keys {
		cs, err := ctx.Store.GetStream(ctx.Proc, s.bucket, key, 0, -1,
			objectstore.StreamOptions{ChunkBytes: chunk})
		if err != nil {
			closeSources(srcs)
			return nil, fmt.Errorf("open %s: %w", key, err)
		}
		srcs = append(srcs, clientStreamSource{cs})
	}
	return srcs, nil
}

func (s storeRuns) free(ctx *faas.Ctx, keys []string) error {
	if !s.cleanup {
		return nil
	}
	for _, key := range keys {
		if err := ctx.Store.Delete(ctx.Proc, s.bucket, key); err != nil {
			return fmt.Errorf("free %s: %w", key, err)
		}
	}
	return nil
}

// lost is always empty: object storage is durable.
func (storeRuns) lost(*des.Proc, *objectstore.Client, []string) ([]int, error) { return nil, nil }

// cacheRuns keeps runs in a cache cluster, degrading per run to a
// copy in an object-storage fallback bucket when the run's shard node
// is down. A fully dead cluster (zone outage) is skipped outright, so
// the job runs the rest of the exchange on the object-store path.
type cacheRuns struct {
	cache    *memcache.Cluster
	fallback string
	// forceStore writes every run straight to the fallback bucket:
	// regeneration after a node loss.
	forceStore bool
}

// fallbackKey names a run's object-storage fallback location.
func fallbackKey(key string) string { return "fallback/" + key }

// errSlabLost marks a run gone from both the cache and the store
// fallback: its shard node died with the data and no regeneration has
// run yet. The operator reacts by regenerating and re-running.
var errSlabLost = errors.New("shuffle: cache slab lost")

func (c cacheRuns) put(ctx *faas.Ctx, key string, pl payload.Payload) (bool, error) {
	if !c.forceStore && !c.cache.Dead() {
		err := c.cache.Set(ctx.Proc, key, pl)
		if err == nil {
			return false, nil
		}
		if !errors.Is(err, memcache.ErrNodeDown) {
			return false, err
		}
	}
	if err := ctx.Store.Put(ctx.Proc, c.fallback, fallbackKey(key), pl); err != nil {
		return false, err
	}
	return true, nil
}

// open fetches every run whole — the cache has no chunked-read API —
// over one concurrent Get per run, sharing node NICs fairly; that
// parallelism is the transfer-in overlap. The resident runs are then
// fed chunk-wise so the merge's CPU charges interleave with the output
// writer's part uploads.
func (c cacheRuns) open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error) {
	pls := make([]payload.Payload, len(keys))
	errs := make([]error, len(keys))
	wg := des.NewWaitGroup(ctx.Proc.Sim())
	for m, key := range keys {
		wg.Add(1)
		ctx.Proc.Spawn(fmt.Sprintf("cache-fetch-%d", m), func(up *des.Proc) {
			defer wg.Done()
			pls[m], errs[m] = c.fetch(up, ctx.Store, key)
		})
	}
	wg.Wait(ctx.Proc)
	srcs := make([]runSource, len(keys))
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", keys[m], err)
		}
		srcs[m] = &payloadSource{pl: pls[m], chunk: chunk}
	}
	return srcs, nil
}

// fetch retrieves one run, falling back to its object-storage copy
// when the shard node is down (or the key is gone with a replaced
// node). A fully dead cluster skips the cache attempt.
func (c cacheRuns) fetch(p *des.Proc, store *objectstore.Client, key string) (payload.Payload, error) {
	var err error
	if c.cache.Dead() {
		err = memcache.ErrNodeDown
	} else {
		var pl payload.Payload
		pl, err = c.cache.Get(p, key)
		if err == nil {
			return pl, nil
		}
		if !errors.Is(err, memcache.ErrNodeDown) && !memcache.IsNotFound(err) {
			return nil, err
		}
	}
	pl, serr := store.Get(p, c.fallback, fallbackKey(key))
	if serr != nil {
		if objectstore.IsNotFound(serr) {
			return nil, fmt.Errorf("%w: %s (%v)", errSlabLost, key, err)
		}
		return nil, serr
	}
	return pl, nil
}

func (c cacheRuns) free(ctx *faas.Ctx, keys []string) error {
	for _, key := range keys {
		if err := c.cache.Delete(ctx.Proc, key); err != nil {
			// A dead shard's data is already gone; freeing it is moot.
			if errors.Is(err, memcache.ErrNodeDown) {
				continue
			}
			return fmt.Errorf("free %s: %w", key, err)
		}
	}
	return nil
}

// lost scans keys sharded to a dead node for ones without a fallback
// copy: data that died with the shard.
func (c cacheRuns) lost(p *des.Proc, client *objectstore.Client, keys []string) ([]int, error) {
	var lost []int
	for i, key := range keys {
		if !c.cache.NodeDown(c.cache.NodeIndexFor(key)) {
			continue
		}
		if _, err := client.Head(p, c.fallback, fallbackKey(key)); err != nil {
			if !objectstore.IsNotFound(err) {
				return nil, err
			}
			lost = append(lost, i)
		}
	}
	return lost, nil
}

// closeSources releases every source; safe after exhaustion.
func closeSources(srcs []runSource) {
	for _, s := range srcs {
		s.close()
	}
}
