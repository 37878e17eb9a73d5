package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"
)

// Identity names the process inside a fleet: which run it belongs to
// (TraceID), what it does (Role), and where it sits (Rank for training
// workers, Replica for serving replicas). It labels everything the
// observability layer exports — Prometheus metrics, trace files,
// structured log lines — so signals from W workers and R replicas can
// be correlated after the fact.
//
// The identity is process-global (one process is one fleet member) and
// read on every export, never on the instrument hot paths, so updating
// it costs nothing at instrumentation sites.
type Identity struct {
	// TraceID is the per-run correlation id, shared by every process of
	// one run: rank 0 (or the first process to need one) generates it
	// and the dist join handshake propagates it to joiners. Zero means
	// "no identity yet".
	TraceID uint64
	// Role is the process's job: "train", "serve", "infer", "bench".
	// Empty when unset.
	Role string
	// Rank is the training rank in [0, world); -1 when not a training
	// worker.
	Rank int
	// Replica is the serving replica index; -1 when not a replica (the
	// serving front end itself reports -1 and labels per-replica metrics
	// explicitly).
	Replica int
}

// TraceIDString renders the trace id as 16 lowercase hex digits, the
// canonical textual form used in logs, trace files and HTTP headers.
func (id Identity) TraceIDString() string {
	return fmt.Sprintf("%016x", id.TraceID)
}

var (
	identityMu sync.Mutex
	identity   = Identity{Rank: -1, Replica: -1}
)

// SetIdentity replaces the whole process identity.
func SetIdentity(id Identity) {
	identityMu.Lock()
	identity = id
	identityMu.Unlock()
}

// CurrentIdentity returns the process identity.
func CurrentIdentity() Identity {
	identityMu.Lock()
	defer identityMu.Unlock()
	return identity
}

// SetRole sets the process role, leaving the rest of the identity.
func SetRole(role string) {
	identityMu.Lock()
	identity.Role = role
	identityMu.Unlock()
}

// SetRank sets the training rank, leaving the rest of the identity.
func SetRank(rank int) {
	identityMu.Lock()
	identity.Rank = rank
	identityMu.Unlock()
}

// SetTraceID adopts a run trace id (a joiner learning the run's id from
// the coordinator's welcome frame). Zero is ignored: an unidentified
// peer must not erase an identity already established.
func SetTraceID(id uint64) {
	if id == 0 {
		return
	}
	identityMu.Lock()
	identity.TraceID = id
	identityMu.Unlock()
}

// EnsureTraceID returns the process's run trace id, generating one if
// none has been set — the coordinator/standalone-process path; joiners
// instead adopt the coordinator's id via SetTraceID.
func EnsureTraceID() uint64 {
	identityMu.Lock()
	defer identityMu.Unlock()
	if identity.TraceID == 0 {
		identity.TraceID = NewTraceID()
	}
	return identity.TraceID
}

// NewTraceID generates a fresh nonzero random trace id. Randomness
// comes from crypto/rand with a time+pid fallback so id generation can
// never fail.
func NewTraceID() uint64 {
	var b [8]byte
	for i := 0; i < 4; i++ {
		if _, err := rand.Read(b[:]); err != nil {
			break
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano())<<16 | uint64(os.Getpid())&0xffff
}
