package main

import "testing"

func TestSteadySweepsAreAllButTheFirst(t *testing.T) {
	for _, c := range []struct{ n, first int }{{1, 0}, {2, 1}, {6, 1}, {7, 1}} {
		for i := 0; i < c.n; i++ {
			if got, want := steady(i, c.n), i >= c.first; got != want {
				t.Errorf("steady(%d, %d) = %v, want %v", i, c.n, got, want)
			}
		}
	}
}
