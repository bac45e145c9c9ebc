// Package repl implements primary/replica shard replication by journal
// shipping (DESIGN.md §15). The primary tees every journaled mutation
// into a Shipper, which appends it to a pending run of records; each
// group commit seals that run as one frame — one seal, one chain MAC, one
// sequence number — and the Shipper's one sender ships the sealed frames
// in batches over the wire protocol's CmdReplicate command, one batch in
// flight. The replica's Applier verifies the chain, unseals each frame
// once, replays its run through its own partition workers as one batch
// and acks a durable watermark. Because the primary's group commit
// (core.GroupJournal) waits for that ack before any client
// acknowledgement, a client ack implies the replica has acked the
// mutation while the link is up — the invariant failover correctness
// rests on.
//
// Frame layout (all integers little-endian):
//
//	seq(8) | epoch(8) | blobLen(4) | blob | mac(16)
//
// blob is the sealed (enclave AES-GCM) run — the mutations' plaintext
// never crosses the link in the clear — and mac is an AES-CMAC chained
// over the previous frame's mac, the header and the blob, so dropped,
// duplicated, reordered or spliced frames are detected before anything is
// applied. The run is core.AppendMutationRun's { recLen(4) | record }*,
// each record the core.AppendMutation record the write-ahead log seals.
// A frame whose sealed run is empty is a reset, the chain genesis: it is
// MAC'd against the fixed non-zero genesis tag and instructs the replica
// to wipe its partitions and restart the chain at the reset's sequence —
// the first frame of every bootstrap snapshot stream. A fresh chain starts
// at the zero tag, so a reset never verifies as a fresh chain's
// continuation. A chained frame must carry at least one record.
package repl

import (
	"encoding/binary"
	"errors"

	"shieldstore/internal/cmac"
	"shieldstore/internal/secret"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// frameHdr is the fixed outer header: seq(8)+epoch(8)+blobLen(4).
const frameHdr = 20

// frameOverhead is the per-frame framing cost beyond the sealed blob.
const frameOverhead = frameHdr + cmac.Size

// maxBlob bounds a single frame's sealed blob — a decode-time sanity
// limit matching the wire protocol's own frame ceiling.
const maxBlob = 64 << 20

// ErrFrameCorrupt reports a malformed or truncated replication frame.
var ErrFrameCorrupt = errors.New("repl: replication frame corrupt")

// ErrChainBroken reports a frame whose MAC does not extend the verified
// chain — evidence of tampering, splicing or a desynced stream.
var ErrChainBroken = errors.New("repl: frame MAC chain broken")

// Frame is one decoded replication frame header.
type Frame struct {
	Seq   uint64
	Epoch uint64
}

// chainState is the sealed per-stream MAC-chain state: the chain key
// (derived inside the enclave, never exported) and the running tag. Both
// ends of a replication link derive the same key from their shared
// sealing identity, so only the paired enclave can extend or verify the
// chain.
//
//ss:trusted
type chainState struct {
	mac *cmac.CMAC
	// key is the guarded chain key, held so release can wipe it when
	// the stream ends instead of leaving it reachable until exit.
	//ss:secret
	key     *secret.Buffer
	last    [cmac.Size]byte
	scratch []byte
}

// chainLabel is the key-derivation label for the replication MAC chain.
// Its version is the frame format's: a peer built for another layout
// derives another key, so its frames fail the chain check and are
// refused instead of misparsed. v2 carries runs and drops the part field;
// v3 MACs a reset against genesis instead of the zero tag.
const chainLabel = "repl-chain-v3"

// genesis is the previous tag a reset frame is MAC'd against. It must
// differ from the zero tag a fresh chain starts at: were they equal, a
// reset sent to a fresh replica would verify as a continuation too, and
// the two frame kinds could not be told apart.
var genesis = [cmac.Size]byte{'r', 'e', 'p', 'l', ' ', 'g', 'e', 'n', 'e', 's', 'i', 's'}

// newChain derives the replication chain key from the enclave's sealing
// identity and starts the chain at the zero tag: a stream that begins
// without a reset continues from there.
//
//ss:seals — derives and holds the chain key inside trusted state.
func newChain(e *sgx.Enclave) *chainState {
	key := e.DeriveKey(chainLabel)
	mac, err := cmac.New(key.Bytes()[:16])
	if err != nil {
		panic("repl: chain key derivation failed: " + err.Error())
	}
	return &chainState{mac: mac, key: key}
}

// release wipes the chain key and drops the MAC engine — called when
// the replication stream's owner (Shipper or Applier) closes. A closed
// chain cannot be extended; re-linking derives a fresh chainState.
//
//ss:seals — wipes trusted key state.
func (c *chainState) release() {
	if c == nil {
		return
	}
	if c.key != nil {
		_ = c.key.Wipe()
	}
	c.mac = nil
}

// reset rewinds the chain to genesis — done by the sender before it
// seals a reset frame.
//
//ss:seals — mutates only the trusted running tag.
func (c *chainState) reset() { c.last = genesis }

// extend computes the next chain tag over last||body, advances the chain
// and returns the tag. Charges the CMAC pass to m.
//
//ss:seals — reads and advances the trusted chain tag.
func (c *chainState) extend(m *sim.Meter, model *sim.CostModel, body []byte) [cmac.Size]byte {
	c.scratch = append(c.scratch[:0], c.last[:]...)
	c.scratch = append(c.scratch, body...)
	m.Count(sim.CtrCMAC)
	m.Charge(model.CMAC(len(c.scratch)))
	c.last = c.mac.Tag(c.scratch)
	return c.last
}

// check verifies tag against the chain continuation last||body; on
// success the chain advances to tag. A failed check leaves the chain
// untouched so a good retransmission can still extend it.
//
//ss:seals — reads and conditionally advances the trusted chain tag.
func (c *chainState) check(m *sim.Meter, model *sim.CostModel, body, tag []byte) bool {
	c.scratch = append(c.scratch[:0], c.last[:]...)
	c.scratch = append(c.scratch, body...)
	m.Count(sim.CtrCMAC)
	m.Charge(model.CMAC(len(c.scratch)))
	if c.mac == nil || !c.mac.Verify(c.scratch, tag) {
		return false
	}
	copy(c.last[:], tag)
	return true
}

// checkGenesis verifies tag as a chain restart (genesis previous tag);
// on success the chain adopts it. Used for reset frames only.
//
//ss:seals — conditionally restarts the trusted chain tag.
func (c *chainState) checkGenesis(m *sim.Meter, model *sim.CostModel, body, tag []byte) bool {
	c.scratch = append(c.scratch[:0], genesis[:]...)
	c.scratch = append(c.scratch, body...)
	m.Count(sim.CtrCMAC)
	m.Charge(model.CMAC(len(c.scratch)))
	if c.mac == nil || !c.mac.Verify(c.scratch, tag) {
		return false
	}
	copy(c.last[:], tag)
	return true
}

// decodeFrame parses the outer layer of one frame at the start of buf,
// returning the total encoded length plus the header+blob span (the MAC
// chain's message) and the trailing tag. The sealed blob is NOT opened
// here — the caller verifies the chain and unseals. Every offset is
// length-guarded against truncated or hostile input.
//
//ss:attacker — defensive decode of wire bytes.
func decodeFrame(f *Frame, buf []byte) (n int, body, blob, tag []byte, err error) {
	if len(buf) < frameOverhead {
		return 0, nil, nil, nil, ErrFrameCorrupt
	}
	f.Seq = binary.LittleEndian.Uint64(buf[0:8])
	f.Epoch = binary.LittleEndian.Uint64(buf[8:16])
	bl := int(binary.LittleEndian.Uint32(buf[16:20]))
	if bl < 0 || bl > maxBlob || bl > len(buf)-frameOverhead {
		return 0, nil, nil, nil, ErrFrameCorrupt
	}
	n = frameOverhead + bl
	body = buf[:frameHdr+bl]
	blob = buf[frameHdr : frameHdr+bl]
	tag = buf[frameHdr+bl : n]
	return n, body, blob, tag, nil
}

// encodeFrame seals the run plaintext, assembles the outer frame and
// extends the MAC chain over it, returning the complete wire bytes.
// Sealing and MAC costs accrue to m.
//
//ss:seals(emits sealed blob + chain MAC only; advances the trusted chain tag through chainState.next)
func encodeFrame(m *sim.Meter, e *sgx.Enclave, chain *chainState, seq, epoch uint64, run []byte) []byte {
	blob := e.Seal(m, run)
	out := make([]byte, frameHdr, frameHdr+len(blob)+cmac.Size)
	binary.LittleEndian.PutUint64(out[0:8], seq)
	binary.LittleEndian.PutUint64(out[8:16], epoch)
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(blob)))
	out = append(out, blob...)
	tag := chain.extend(m, e.Model(), out)
	return append(out, tag[:]...)
}
