// Package poolbalance is the golden-test corpus for the poolbalance
// analyzer. Lines marked with want comments carry their expected
// diagnostic message substrings.
package poolbalance

import "sync"

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func work() error { return nil }

// --- violation 1: an early return path leaks the value ---------------

func leakOnReturn(cond bool) {
	b := bufPool.Get().(*[]byte)
	if cond {
		return // want "return leaks the pool value"
	}
	bufPool.Put(b)
}

// --- violation 2: acquired and never put ------------------------------

func neverPut() {
	b := bufPool.Get().(*[]byte) // want "never reaches a Put"
	_ = b
}

// --- violation 3: put on only one branch, fallthrough leaks ----------

func halfPut(cond bool) {
	b := bufPool.Get().(*[]byte) // want "never reaches a Put"
	if cond {
		bufPool.Put(b)
	}
}

// --- violation 4: a Put inside a loop that may not run ----------------

func loopPut(n int) {
	b := bufPool.Get().(*[]byte) // want "never reaches a Put"
	for i := 0; i < n; i++ {
		bufPool.Put(b)
	}
}

// --- violation 5: the cancel-drop is `err == nil { Put }` only ---------

func elseDrop() error {
	b := bufPool.Get().(*[]byte)
	err := work()
	if err != nil {
		*b = (*b)[:0]
	} else {
		bufPool.Put(b)
	}
	return err // want "return leaks the pool value"
}

// --- legal 1: defer Put covers every path ----------------------------

func deferPut() {
	b := bufPool.Get().(*[]byte)
	defer bufPool.Put(b)
	*b = (*b)[:0]
}

// --- legal 2: the documented cancel-drop (error-nil guarded Put) -----

func cancelDrop() error {
	b := bufPool.Get().(*[]byte)
	err := work()
	if err == nil {
		bufPool.Put(b)
	}
	return err
}

// --- legal 3: getter/putter wrappers, balanced caller ----------------

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

func usesWrappers() {
	b := getBuf()
	putBuf(b)
}

// --- legal 4: returning the value transfers ownership ----------------

func handOff() *[]byte {
	b := getBuf()
	return b
}
