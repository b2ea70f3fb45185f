package exec

// RaceEnabled reports whether the race detector is active.
const RaceEnabled = raceEnabled

// ArenaBytes releases every array e holds — its run scratch's, its partition
// scratches' and its result's — to e's arena, and returns the capacity in
// bytes of every array the arena then holds: what a Reuse executor keeps
// between runs. The last result becomes invalid.
func ArenaBytes(e *Executor) int {
	if e.scratch == nil {
		return 0
	}
	a := e.scratch.arena()
	e.scratch.release()
	for _, p := range e.parts {
		p.release()
	}
	a.returnCols(e.out.Cols)
	return a.freeBytes()
}
