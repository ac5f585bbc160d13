package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// On-disk framing. Both files (wal.log, snapshot.json) open with an
// 8-byte magic identifying the format version, followed by frames of
//
//	[uint32 LE payload length][uint32 LE CRC32C(payload)][payload]
//
// The WAL holds one frame per record; the snapshot holds exactly one
// frame (the Snapshot JSON). CRC32C (Castagnoli) is the storage-grade
// polynomial with hardware support on current CPUs.
const (
	walMagic  = "FPGAWAL1"
	snapMagic = "FPGASNP1"

	magicLen        = 8
	frameHeaderLen  = 8
	walFileName     = "wal.log"
	snapFileName    = "snapshot.json"
	snapTmpFileName = "snapshot.json.tmp"
)

// DefaultMaxRecordBytes caps one framed payload. A record holds one
// task (or one controller config), so 1 MiB is generous; the cap's
// real job is on the read side, where a corrupt length prefix must not
// become an attempt to allocate gigabytes.
const DefaultMaxRecordBytes = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame appends one framed payload to buf.
func frame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// encodeRecord frames r for appending.
func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("durable: encoding record: %w", err)
	}
	return frame(nil, payload), nil
}

// decodeFrames parses framed WAL records from data (the file contents
// after the magic). A torn or corrupt tail — short header, short
// payload, implausible length, or CRC mismatch — ends the scan
// cleanly: the records decoded before it are returned along with the
// byte length of the valid prefix, and the caller truncates the file
// there. That is the crash contract: the only damage a torn write can
// do is lose the unacknowledged tail, never corrupt what came before.
//
// A payload that passes its CRC but does not decode as a Record, or a
// record whose sequence does not increase, is different: the disk did
// not tear, the log is wrong. That returns an error so recovery fails
// loudly instead of resuming from silently wrong state.
func decodeFrames(data []byte) (recs []Record, valid int, err error) {
	var lastSeq uint64
	off := 0
	for {
		if len(data)-off < frameHeaderLen {
			return recs, off, nil // torn or clean EOF
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > DefaultMaxRecordBytes || len(data)-off-frameHeaderLen < n {
			return recs, off, nil // corrupt length or torn payload
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, nil // corrupt payload
		}
		var r Record
		if jerr := json.Unmarshal(payload, &r); jerr != nil {
			return recs, off, fmt.Errorf("durable: wal record %d: checksummed payload is not a record: %w", len(recs), jerr)
		}
		if r.Seq <= lastSeq {
			return recs, off, fmt.Errorf("durable: wal record %d: sequence %d does not advance past %d", len(recs), r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		off += frameHeaderLen + n
	}
}
