package wire

import (
	"bytes"
	"testing"

	"t3/internal/engine/plan"
)

// FuzzWireDecode feeds arbitrary bytes to the parsing half of the protocol
// as a server meets it: ParseHeader, then the decoder on what follows, then
// PlanKey on what decoded. Nothing may panic, and whatever decodes must
// re-encode stably: AppendPlan of the decoded plan decodes again to a plan
// with the same key and the same encoding. (The first re-encoding may differ
// from the input — it drops column lists a node merely repeats from its
// child and spells out a zero build width — so stability is asked of the
// re-encoding, not of the fuzzer's bytes.) A second plan decoded into the
// same arena must leave the first one intact.
//
// The checked-in corpus holds AppendFrame output for plans of every
// operator, and truncations and bit flips of it.
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mode := plan.TrueCards
		payload := data
		if len(data) >= HeaderSize {
			m, n, err := ParseHeader(data)
			if err == nil {
				mode = m
				payload = data[HeaderSize:]
				if n < len(payload) {
					payload = payload[:n]
				}
			}
		}
		var dec Decoder
		root, err := dec.Decode(payload)
		if err != nil {
			return
		}
		key := PlanKey(root, mode)
		enc := AppendPlan(nil, root)

		// The same arena takes the re-encoding beside the original.
		again, err := dec.DecodeNext(enc)
		if err != nil {
			t.Fatalf("re-encoding of a decoded plan does not decode: %v\npayload %x\nre-encoded %x", err, payload, enc)
		}
		if got := PlanKey(again, mode); got != key {
			t.Fatalf("key %+v became %+v across a re-encode\npayload %x", key, got, payload)
		}
		if enc2 := AppendPlan(nil, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not stable\nfirst  %x\nsecond %x", enc, enc2)
		}
		if PlanKey(root, mode) != key || !bytes.Equal(AppendPlan(nil, root), enc) {
			t.Fatalf("decoding a second plan into the arena changed the first\npayload %x", payload)
		}
		if other := PlanKey(root, 1-mode); other.Struct != key.Struct {
			t.Fatalf("the card mode changed the structural fingerprint\npayload %x", payload)
		}
	})
}
