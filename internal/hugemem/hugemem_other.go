//go:build !linux

package hugemem

func advise[T any]([]T) {}
