package results

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Fingerprint returns a stable content address for a normalized key/value
// description of a configuration. The encoding is canonical: entries are
// sorted by key and each key and value is length-prefixed before hashing,
// so the fingerprint is independent of map insertion order and immune to
// concatenation ambiguity ("ab"+"c" vs "a"+"bc"). Two maps produce the
// same fingerprint iff they hold exactly the same key/value pairs.
//
// The trial cache (internal/service) keys completed trial statistics by
// the Fingerprint of the full (scenario, engine-knob) tuple — core.CacheKey
// writes this very encoding without building the map, and its tests hold
// it to this function — so the encoding must never change silently: any
// change invalidates every persisted cache entry. The hash is SHA-256, making cross-config collisions a
// non-concern at any realistic archive size.
func Fingerprint(kv map[string]string) string {
	keys := make([]string, 0, len(kv))
	size := 0
	for k, v := range kv {
		keys = append(keys, k)
		size += 8 + len(k) + 8 + len(v)
	}
	sort.Strings(keys)
	// One buffer, hashed once: appending a string copies it once, where
	// handing it to a hash.Hash costs a []byte conversion per field first.
	buf := make([]byte, 0, size)
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(kv[k])))
		buf = append(buf, kv[k]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
