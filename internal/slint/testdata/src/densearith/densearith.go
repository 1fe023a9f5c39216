// Package densearith exercises the densearith analyzer from outside the
// wal package: consumer code has no LSN-method allowlist at all.
package densearith

import "wal"

func consumer(log *wal.Log, rec *wal.Record) {
	lsn, _ := log.WriteRecord(rec)
	end := lsn + wal.LSN(rec.Size) // want `arithmetic on wal\.LSN`
	_ = end

	gap := lsn - rec.LSN // want `arithmetic on wal\.LSN`
	_ = gap

	lsn -= 8 // want `compound assignment on wal\.LSN`
	lsn--    // want `-- on wal\.LSN is a dense-LSN bug`
	_ = lsn
}

func consumerFine(log *wal.Log, rec *wal.Record) {
	lsn, _ := log.WriteRecord(rec)
	end := lsn.Advance(rec.Size)
	_ = lsn.Distance(rec.LSN)
	if end > lsn {
		_ = end
	}
	// Plain integer math stays invisible to the analyzer.
	n := rec.Size + 8
	_ = n
}

func suppressedConsumer(lsn wal.LSN) wal.LSN {
	return lsn + 1 //slint:ignore densearith fixture keeps one raw add under a recorded reason
}
