package platform

// This file is the speculative-execution hook of the translated
// platform: the multi-core scheduler (internal/soc) checkpoints a core
// at a quantum boundary, lets it run speculatively, and either commits
// or rolls back. The CPU state is saved through c6x.Sim's own hook; the
// platform-side small state (sync device, interrupt flags, attribution
// counters) is saved by value; platform RAM and the cache-table RAM
// revert through a write undo journal, and debug output by truncation.

type checkpoint struct {
	sync         SyncDev
	outLen       int
	srcInsts     int64
	lastRegion   int
	lastStartPkt int
	irqIE        bool
	irqInHandler bool
	irqWaiting   bool
	irqShadowSrc uint32
	irqTaken     int64
	irqIdled     int64
	l0Idle       int64
	delivLen     int
	valid        bool
}

// memUndo is one journaled store: the old bytes at off in platform RAM
// (ctab false) or the cache-table RAM (ctab true).
type memUndo struct {
	ctab bool
	size int32
	off  uint32
	old  uint32
}

// Checkpoint saves the platform's complete execution state (CPU
// included) and starts journaling memory stores. Only one checkpoint is
// outstanding at a time; a new one replaces the last.
func (sys *System) Checkpoint() {
	sys.CPU.Checkpoint()
	ck := &sys.ck
	ck.sync = *sys.Sync
	ck.outLen = len(sys.Output)
	ck.srcInsts = sys.srcInsts
	ck.lastRegion = sys.lastRegion
	ck.lastStartPkt = sys.lastStartPkt
	ck.irqIE = sys.irqIE
	ck.irqInHandler = sys.irqInHandler
	ck.irqWaiting = sys.irqWaiting
	ck.irqShadowSrc = sys.irqShadowSrc
	ck.irqTaken = sys.irqTaken
	ck.irqIdled = sys.irqIdled
	ck.l0Idle = sys.l0Idle
	ck.delivLen = len(sys.deliveries)
	ck.valid = true
	sys.journaling = true
	sys.undo = sys.undo[:0]
}

// CommitCheckpoint discards the outstanding checkpoint (the speculative
// execution is kept).
func (sys *System) CommitCheckpoint() {
	if !sys.ck.valid {
		return
	}
	sys.CPU.CommitCheckpoint()
	sys.journaling = false
	sys.undo = sys.undo[:0]
	sys.ck.valid = false
}

// Rollback restores the state saved by the last Checkpoint, exactly:
// CPU state, sync device, interrupt and attribution state, RAM and
// cache-table contents, and debug output.
func (sys *System) Rollback() {
	if !sys.ck.valid {
		return
	}
	sys.CPU.Rollback()
	for i := len(sys.undo) - 1; i >= 0; i-- {
		u := &sys.undo[i]
		if u.ctab {
			wr(sys.ctab, u.off, u.old, int(u.size))
		} else {
			sys.ramWrite(u.off, u.old, int(u.size))
		}
	}
	sys.journaling = false
	sys.undo = sys.undo[:0]
	ck := &sys.ck
	*sys.Sync = ck.sync
	sys.Output = sys.Output[:ck.outLen]
	sys.srcInsts = ck.srcInsts
	sys.lastRegion = ck.lastRegion
	sys.lastStartPkt = ck.lastStartPkt
	sys.irqIE = ck.irqIE
	sys.irqInHandler = ck.irqInHandler
	sys.irqWaiting = ck.irqWaiting
	sys.irqShadowSrc = ck.irqShadowSrc
	sys.irqTaken = ck.irqTaken
	sys.irqIdled = ck.irqIdled
	sys.l0Idle = ck.l0Idle
	sys.deliveries = sys.deliveries[:ck.delivLen]
	ck.valid = false
}

// journal records the bytes a store is about to overwrite.
func (sys *System) journal(ctab bool, off, old uint32, size int) {
	sys.undo = append(sys.undo, memUndo{ctab: ctab, size: int32(size), off: off, old: old})
}
