//go:build race

package main

// raceEnabled reports a -race build, whose shadow memory makes resident
// sets meaningless to gate.
const raceEnabled = true
