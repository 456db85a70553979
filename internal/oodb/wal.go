package oodb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// Write-ahead log. Because commits are serialized, each committed
// transaction is framed as ONE log record:
//
//	u32 payload length | payload | u32 crc32(payload)
//
// payload = txid u64 | op count u32 | ops. A torn tail (incomplete
// last record or CRC mismatch) is tolerated on recovery: the intact
// prefix is applied, the tail is discarded and truncated away —
// exactly the all-or-nothing transaction guarantee.

type opType uint8

const (
	opCreate opType = iota + 1
	opSet
	opDelete
	opDefClass
)

// walOp is one logical operation inside a transaction.
type walOp struct {
	typ   opType
	oid   OID
	class string // create: class; defclass: class name
	super string // defclass only
	attrs map[string]Kind
	attr  string // set only
	val   Value  // set only
}

func float64FromBits(u uint64) float64 { return math.Float64frombits(u) }

func encodeTx(txid uint64, ops []walOp) []byte {
	var e encoder
	e.u64(txid)
	e.u32(uint32(len(ops)))
	for _, op := range ops {
		e.u8(uint8(op.typ))
		switch op.typ {
		case opCreate:
			e.u64(uint64(op.oid))
			e.str(op.class)
		case opSet:
			e.u64(uint64(op.oid))
			e.str(op.attr)
			e.value(op.val)
		case opDelete:
			e.u64(uint64(op.oid))
		case opDefClass:
			e.str(op.class)
			e.str(op.super)
			e.u32(uint32(len(op.attrs)))
			for _, name := range sortedAttrNames(op.attrs) {
				e.str(name)
				e.u8(uint8(op.attrs[name]))
			}
		}
	}
	return e.bytes()
}

func sortedAttrNames(m map[string]Kind) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func decodeTx(payload []byte) (uint64, []walOp, error) {
	d := &decoder{data: payload}
	txid, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	count, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	ops := make([]walOp, 0, count)
	for i := uint32(0); i < count; i++ {
		t, err := d.u8()
		if err != nil {
			return 0, nil, err
		}
		op := walOp{typ: opType(t)}
		switch op.typ {
		case opCreate:
			u, err := d.u64()
			if err != nil {
				return 0, nil, err
			}
			op.oid = OID(u)
			if op.class, err = d.str(); err != nil {
				return 0, nil, err
			}
		case opSet:
			u, err := d.u64()
			if err != nil {
				return 0, nil, err
			}
			op.oid = OID(u)
			if op.attr, err = d.str(); err != nil {
				return 0, nil, err
			}
			if op.val, err = d.value(); err != nil {
				return 0, nil, err
			}
		case opDelete:
			u, err := d.u64()
			if err != nil {
				return 0, nil, err
			}
			op.oid = OID(u)
		case opDefClass:
			if op.class, err = d.str(); err != nil {
				return 0, nil, err
			}
			if op.super, err = d.str(); err != nil {
				return 0, nil, err
			}
			n, err := d.u32()
			if err != nil {
				return 0, nil, err
			}
			op.attrs = make(map[string]Kind, n)
			for j := uint32(0); j < n; j++ {
				name, err := d.str()
				if err != nil {
					return 0, nil, err
				}
				k, err := d.u8()
				if err != nil {
					return 0, nil, err
				}
				op.attrs[name] = Kind(k)
			}
		default:
			return 0, nil, fmt.Errorf("oodb: unknown wal op %d", t)
		}
		ops = append(ops, op)
	}
	return txid, ops, nil
}

// walWriter appends transaction records to the log file.
type walWriter struct {
	f    *os.File
	sync bool
}

func openWAL(path string, syncEachCommit bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("oodb: open wal: %w", err)
	}
	return &walWriter{f: f, sync: syncEachCommit}, nil
}

func (w *walWriter) appendTx(txid uint64, ops []walOp) error {
	payload := encodeTx(txid, ops)
	frame := make([]byte, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	binary.LittleEndian.PutUint32(frame[4+len(payload):], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("oodb: wal append: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("oodb: wal sync: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replayWAL reads the log at path and invokes apply for every intact
// committed transaction, in order. It returns the byte offset of the
// intact prefix; callers truncate the file there to drop a torn
// tail.
func replayWAL(path string, apply func(txid uint64, ops []walOp) error) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("oodb: open wal for replay: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("oodb: read wal: %w", err)
	}
	off := 0
	for {
		if off+4 > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+4+n+4 > len(data) {
			break // torn tail
		}
		payload := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt tail
		}
		txid, ops, err := decodeTx(payload)
		if err != nil {
			break // undecodable tail treated as torn
		}
		if err := apply(txid, ops); err != nil {
			return 0, err
		}
		off += 4 + n + 4
	}
	return int64(off), nil
}
