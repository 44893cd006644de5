//go:build !linux

package main

func fsType(string) (string, error) { return "unknown", nil }

func peakRSSMB() float64 { return 0 }
