package cloudsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Checkpoint throughput model (§IV-F): the paper measures checkpointing as
// CPU-bound, reporting 62.83 MB/s on a 1-core t2.micro and 134.22 MB/s on a
// 16-core m4.4xlarge. A logarithmic fit through those two points gives
// speed(cores) = 62.83 + 17.8475·log2(cores), which this model uses for all
// instance sizes.
const (
	baseUploadMBps   = 62.83
	uploadMBpsPerLog = 17.8475
)

// UploadSpeedMBps returns the modeled checkpoint throughput for an instance
// with the given core count.
func UploadSpeedMBps(cpus int) float64 {
	if cpus < 1 {
		cpus = 1
	}
	return baseUploadMBps + uploadMBpsPerLog*math.Log2(float64(cpus))
}

// MaxModelSizeMB is the largest checkpoint that fits inside the two-minute
// termination notice at the modeled speed (7.36 GB at 1 core, 15.73 GB at
// 16, matching §IV-F).
func MaxModelSizeMB(cpus int) float64 {
	return UploadSpeedMBps(cpus) * NoticeLeadTime.Seconds()
}

// ObjectStore is the S3-like persistent blob store trials checkpoint into.
// Transfers report the virtual time they take; callers account for it. The
// zero value is not usable; construct with NewObjectStore.
type ObjectStore struct {
	mu    sync.Mutex
	blobs map[string]*object

	putOps, getOps     int
	putBytes, getBytes int64
	putTime, getTime   time.Duration
}

// object is one stored blob and the size its transfers are modeled at. A
// PutSized over an existing key reuses its buffer: Get hands out copies,
// and View's read-only views last only until that put.
type object struct {
	data   []byte
	sizeMB float64
}

// NewObjectStore returns an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{blobs: make(map[string]*object)}
}

// TransferStats summarizes cumulative traffic (Fig. 12's numerator).
type TransferStats struct {
	PutOps   int
	GetOps   int
	PutBytes int64
	GetBytes int64
	PutTime  time.Duration
	GetTime  time.Duration
}

// PutSized stores data under key from an instance with the given core
// count, models the transfer as if it were sizeMB large and returns the
// modeled upload duration. Simulated trials carry small bookkeeping blobs
// while their checkpoints represent multi-hundred-megabyte model state;
// this keeps the timing model faithful without allocating gigabytes.
func (o *ObjectStore) PutSized(key string, data []byte, sizeMB float64, cpus int) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	obj := o.blobs[key]
	if obj == nil {
		obj = &object{}
		o.blobs[key] = obj
	}
	obj.data = append(obj.data[:0], data...)
	obj.sizeMB = sizeMB
	d := durationForMB(sizeMB, cpus)
	o.putOps++
	o.putBytes += int64(sizeMB * (1 << 20))
	o.putTime += d
	return d
}

// Get retrieves a copy of a blob and the modeled download duration (based
// on the size it was stored with).
func (o *ObjectStore) Get(key string, cpus int) ([]byte, time.Duration, error) {
	data, d, err := o.View(key, cpus)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), data...), d, nil
}

// View is Get without the copy: the blob is the store's own, read-only,
// and valid until the next PutSized of the key. A restore decodes it in
// place. The transfer is modeled and counted as Get's.
func (o *ObjectStore) View(key string, cpus int) ([]byte, time.Duration, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	obj, ok := o.blobs[key]
	if !ok {
		return nil, 0, fmt.Errorf("cloudsim: object %q not found", key)
	}
	d := durationForMB(obj.sizeMB, cpus)
	o.getOps++
	o.getBytes += int64(obj.sizeMB * (1 << 20))
	o.getTime += d
	return obj.data, d, nil
}

// Keys lists stored keys in sorted order (invariant checkers scan every
// persisted checkpoint through it).
func (o *ObjectStore) Keys() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.blobs))
	for k := range o.blobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Exists reports whether a key holds a blob.
func (o *ObjectStore) Exists(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.blobs[key]
	return ok
}

// Stats returns cumulative transfer statistics.
func (o *ObjectStore) Stats() TransferStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return TransferStats{
		PutOps:   o.putOps,
		GetOps:   o.getOps,
		PutBytes: o.putBytes,
		GetBytes: o.getBytes,
		PutTime:  o.putTime,
		GetTime:  o.getTime,
	}
}

func durationForMB(mb float64, cpus int) time.Duration {
	secs := mb / UploadSpeedMBps(cpus)
	return time.Duration(secs * float64(time.Second))
}
