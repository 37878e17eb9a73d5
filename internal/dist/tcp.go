package dist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// protoVersion guards against mixed binaries joining one run; bump it
// whenever the wire protocol changes incompatibly. v2 added the run
// trace id to the handshake (hello + welcome) and a run-id prefix on
// every reduce payload. v3 added membership epochs and coordinator-side
// rank assignment (hello carries {epoch, rank-or-assign-me}, welcome
// carries {assigned rank, world, epoch}) for elastic regroup.
const protoVersion = 3

// helloLen is the FrameHello payload: u32 proto, u32 world (0 = rejoin,
// accept whatever world forms), u32 rank (always rankAssign: the
// coordinator assigns ranks in arrival order), u64 run trace id (0 when
// the joiner has none; the coordinator's welcome is authoritative either
// way), u64 membership epoch (0 = fresh join; a rejoining survivor
// announces the epoch it last held).
const helloLen = 28

// welcomeLen is the FrameWelcome payload: u64 run trace id, u32
// assigned rank, u32 world, u64 membership epoch.
const welcomeLen = 24

// rankAssign in a hello's rank field asks the coordinator to assign a
// rank: ranks are an artifact of arrival order, not identity; the
// training trajectory depends only on the group size.
const rankAssign = 0xFFFFFFFF

// hello is the decoded join announcement.
type hello struct {
	proto uint32
	world uint32
	rank  uint32
	runID uint64
	epoch uint64
}

func appendHello(dst []byte, h hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.proto)
	dst = binary.LittleEndian.AppendUint32(dst, h.world)
	dst = binary.LittleEndian.AppendUint32(dst, h.rank)
	dst = binary.LittleEndian.AppendUint64(dst, h.runID)
	dst = binary.LittleEndian.AppendUint64(dst, h.epoch)
	return dst
}

// recvHello reads and validates the frame envelope of a join
// announcement (frame type, length); version and membership checks
// (proto, world, epoch) belong to the caller, which can answer a
// well-formed but unacceptable hello with the reason.
func recvHello(conn Conn) (hello, error) {
	t, payload, err := conn.Recv()
	if err != nil {
		return hello{}, fmt.Errorf("dist: reading join hello: %w", err)
	}
	if t != FrameHello {
		return hello{}, fmt.Errorf("dist: first frame from joining worker is %s, want hello", t)
	}
	if len(payload) != helloLen {
		return hello{}, fmt.Errorf("dist: hello payload is %d bytes, want %d", len(payload), helloLen)
	}
	h := hello{
		proto: binary.LittleEndian.Uint32(payload[0:]),
		world: binary.LittleEndian.Uint32(payload[4:]),
		rank:  binary.LittleEndian.Uint32(payload[8:]),
		runID: binary.LittleEndian.Uint64(payload[12:]),
		epoch: binary.LittleEndian.Uint64(payload[20:]),
	}
	return h, nil
}

// protoMismatch describes a hello from another protocol version, or
// returns "" when the versions agree.
func protoMismatch(h hello) string {
	if h.proto == protoVersion {
		return ""
	}
	return fmt.Sprintf("worker speaks protocol %d, coordinator speaks %d (mixed binaries?)", h.proto, protoVersion)
}

// welcome is the decoded join acceptance.
type welcome struct {
	runID uint64
	rank  uint32
	world uint32
	epoch uint64
}

func appendWelcome(dst []byte, w welcome) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, w.runID)
	dst = binary.LittleEndian.AppendUint32(dst, w.rank)
	dst = binary.LittleEndian.AppendUint32(dst, w.world)
	dst = binary.LittleEndian.AppendUint64(dst, w.epoch)
	return dst
}

func decodeWelcome(payload []byte) (welcome, error) {
	if len(payload) != welcomeLen {
		return welcome{}, fmt.Errorf("dist: welcome payload is %d bytes, want %d", len(payload), welcomeLen)
	}
	return welcome{
		runID: binary.LittleEndian.Uint64(payload[0:]),
		rank:  binary.LittleEndian.Uint32(payload[8:]),
		world: binary.LittleEndian.Uint32(payload[12:]),
		epoch: binary.LittleEndian.Uint64(payload[16:]),
	}, nil
}

// dialJitter is the shared randomness for dial backoff; math/rand's
// global source needs no seeding for this purpose, but the lock keeps
// concurrent joiners' streams independent under -race.
var dialJitter struct {
	sync.Mutex
	r *rand.Rand
}

// dialBackoff returns the next retry delay: exponential from base,
// capped at max, with ±50% jitter so a fleet of workers launched by one
// script does not hammer the coordinator in lockstep.
func dialBackoff(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	dialJitter.Lock()
	if dialJitter.r == nil {
		dialJitter.r = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	f := 0.5 + dialJitter.r.Float64() // [0.5, 1.5)
	dialJitter.Unlock()
	return time.Duration(float64(d) * f)
}
