package webpage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"knowphish/internal/xxh"
)

// preimagePool recycles the canonical-encoding buffer both page hashes
// build. Content keys are computed per request on the serving hot path
// (memo keys) and fingerprints per record in the store, so the
// preimage — which can be page-sized — must not be rebuilt on the heap
// each time.
var preimagePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// maxPooledPreimage caps the buffer capacity returned to preimagePool:
// one pathological multi-megabyte snapshot must not leave page-sized
// buffers pinned in the pool serving every later small page.
const maxPooledPreimage = 1 << 20

// Fingerprint hashes every content field of a snapshot into a stable hex
// sha256 digest. The landing URL is not part of it: two snapshots share
// a fingerprint exactly when a browser recorded identical data sources
// for them. This is the persisted identity — the verdict store records
// it and uses it, next to the landing URL, to decide when a newer
// verdict supersedes an older one. sha256 keeps the identity
// collision-resistant even against adversarial content. The in-memory
// memo and the v2 ETag use ContentKey instead.
func Fingerprint(snap *Snapshot) string {
	return string(AppendFingerprint(nil, snap))
}

// AppendFingerprint appends the hex fingerprint of snap to dst and
// returns the extended slice — the allocation-free form of Fingerprint
// (the preimage is built in a pooled buffer and hashed on the stack).
// The digest is byte-identical to Fingerprint's.
func AppendFingerprint(dst []byte, snap *Snapshot) []byte {
	bp := preimagePool.Get().(*[]byte)
	b := appendPreimage((*bp)[:0], snap)
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledPreimage {
		*bp = b
		preimagePool.Put(bp)
	}
	return hex.AppendEncode(dst, sum[:])
}

// appendPreimage appends the canonical content encoding of snap — the
// shared preimage of the sha256 fingerprint and the XXH64 content key.
func appendPreimage(b []byte, snap *Snapshot) []byte {
	b = fpString(b, snap.StartingURL)
	b = fpList(b, snap.RedirectionChain)
	b = fpList(b, snap.LoggedLinks)
	b = fpList(b, snap.HREFLinks)
	b = fpList(b, snap.ScreenshotTerms)
	b = fpString(b, snap.Title)
	b = fpString(b, snap.Text)
	b = fpString(b, snap.Copyright)
	b = fpString(b, snap.Language)
	var counts [24]byte
	binary.LittleEndian.PutUint64(counts[0:], uint64(snap.InputCount))
	binary.LittleEndian.PutUint64(counts[8:], uint64(snap.ImageCount))
	binary.LittleEndian.PutUint64(counts[16:], uint64(snap.IFrameCount))
	return append(b, counts[:]...)
}

// Key128 is a 128-bit content key: two independently seeded XXH64 sums
// over the same preimage. 64 bits is too narrow for a table that serves
// verdicts (a collision would hand one page another page's verdict);
// two seeded sums push the collision probability back to the 128-bit
// birthday bound at double the hashing cost of one pass — still far
// below the sha256 identity's.
type Key128 struct {
	Hi, Lo uint64
}

// ContentKey returns the page key of a snapshot: XXH64 over the landing
// URL plus the canonical content preimage. It keys the memo's verdict
// and analysis tables and the v1 batch dedupe, and its hex form is
// Verdict.ContentFingerprint and the content half of the v2 ETag. The
// landing URL is part of this key — unlike the sha256 Fingerprint,
// which identifies "the same recorded content" — because feature
// extraction reads the landing URL, so two snapshots differing only
// there must not share a verdict. The preimage is built in a pooled
// buffer and hashed on the stack; ContentKey never allocates.
func ContentKey(snap *Snapshot) Key128 {
	bp := preimagePool.Get().(*[]byte)
	b := fpString((*bp)[:0], snap.LandingURL)
	b = appendPreimage(b, snap)
	k := Key128{Hi: xxh.Sum64(b, 1), Lo: xxh.Sum64(b, 0)}
	if cap(b) <= maxPooledPreimage {
		*bp = b
		preimagePool.Put(bp)
	}
	return k
}

// fpString appends one length-delimited string of the canonical
// preimage encoding: the bytes followed by a 0 separator.
func fpString(b []byte, s string) []byte {
	b = append(b, s...)
	return append(b, 0)
}

// fpList appends a string list: an 8-byte length prefix, then each
// element fpString-encoded.
func fpList(b []byte, ss []string) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(ss)))
	b = append(b, n[:]...)
	for _, s := range ss {
		b = fpString(b, s)
	}
	return b
}
