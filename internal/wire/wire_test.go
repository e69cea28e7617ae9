package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 5000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("expected EOF at end, got %v", err)
	}
}

// TestFrameRejectsCorruption flips every byte of an encoded frame in turn
// and asserts the decoder refuses each mutant with a typed error — no
// corrupt frame may pass, and none may panic.
func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgWindowDone, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		for _, delta := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= delta
			_, _, err := ReadFrame(bytes.NewReader(mut), 0)
			if err == nil {
				t.Fatalf("byte %d ^ %#x accepted", i, delta)
			}
			if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrCRC) && !errors.Is(err, ErrTooLarge) &&
				!errors.Is(err, ErrTruncated) {
				t.Fatalf("byte %d ^ %#x: untyped error %v", i, delta, err)
			}
		}
	}
}

// TestAppendFrame pins AppendFrame to WriteFrame's bytes and to the frame
// format byte for byte, and checks that frames appended after a prefix
// leave it intact and read back in order.
func TestAppendFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgWindowDone, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := AppendFrame(nil, MsgWindowDone, []byte("hello"))
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("AppendFrame % x, WriteFrame % x", got, buf.Bytes())
	}
	// magic, version, type, length 5, "hello", CRC32 (IEEE) of all before it.
	want, _ := hex.DecodeString("4d4602030500000068656c6c6f51b37523")
	if !bytes.Equal(got, want) {
		t.Fatalf("frame % x, want % x", got, want)
	}

	prefix := []byte("prefix")
	b := AppendFrame(append([]byte(nil), prefix...), MsgHello, []byte("one"))
	b = AppendFrame(b, MsgAbort, bytes.Repeat([]byte{0xCD}, 3000))
	if !bytes.Equal(b[:len(prefix)], prefix) {
		t.Fatalf("prefix overwritten: %q", b[:len(prefix)])
	}
	r := bytes.NewReader(b[len(prefix):])
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{{MsgHello, []byte("one")}, {MsgAbort, bytes.Repeat([]byte{0xCD}, 3000)}} {
		typ, p, err := ReadFrame(r, 0)
		if err != nil || typ != f.typ || !bytes.Equal(p, f.payload) {
			t.Fatalf("read type %d (%d B, %v), want type %d (%d B)", typ, len(p), err, f.typ, len(f.payload))
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgJob, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := 0; n < len(frame); n++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:n]), 0); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes accepted", n, len(frame))
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf, 512); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	evs := []Event{
		{At: 12345, Src: 0, Dst: 3, Seq: 9, Kind: 1, Payload: []byte{1, 2, 3}},
		{At: 12345, Src: 1, Dst: 2, Seq: 0, Kind: 2, Payload: nil},
		{At: 1 << 50, Src: 7, Dst: 0, Seq: 1 << 40, Kind: 9, Payload: bytes.Repeat([]byte{9}, 200)},
	}
	b := AppendEvents(nil, evs)
	got, err := ReadEvents(NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].At != evs[i].At || got[i].Src != evs[i].Src || got[i].Dst != evs[i].Dst ||
			got[i].Seq != evs[i].Seq || got[i].Kind != evs[i].Kind ||
			!bytes.Equal(got[i].Payload, evs[i].Payload) {
			t.Fatalf("event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
}

func TestEventBatchRejectsShort(t *testing.T) {
	evs := []Event{{At: 1, Src: 0, Dst: 1, Seq: 1, Kind: 1, Payload: []byte{1}}}
	b := AppendEvents(nil, evs)
	for n := 0; n < len(b); n++ {
		if _, err := ReadEvents(NewReader(b[:n])); err == nil {
			t.Fatalf("short batch %d/%d accepted", n, len(b))
		}
	}
	// A huge count with a tiny body must be rejected before allocating.
	var e Buffer
	e.U32(1 << 30)
	if _, err := ReadEvents(NewReader(e.B)); !errors.Is(err, ErrShort) {
		t.Fatalf("want ErrShort for absurd count, got %v", err)
	}
}

func TestBufferReaderPrimitives(t *testing.T) {
	var e Buffer
	e.U8(7)
	e.U16(65535)
	e.U32(1 << 31)
	e.U64(1 << 63)
	e.I64(-5)
	e.I32(-9)
	e.String("massf")
	e.Bytes([]byte{1, 2})
	r := NewReader(e.B)
	if r.U8() != 7 || r.U16() != 65535 || r.U32() != 1<<31 || r.U64() != 1<<63 ||
		r.I64() != -5 || r.I32() != -9 || r.String() != "massf" {
		t.Fatal("primitive round trip failed")
	}
	if got := r.BytesView(); len(got) != 2 || got[0] != 1 {
		t.Fatalf("bytes round trip failed: %v", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err=%v len=%d", r.Err(), r.Len())
	}
	// Overrun reads report ErrShort, never panic.
	if r.U64(); !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("want ErrShort, got %v", r.Err())
	}
}
