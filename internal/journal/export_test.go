package journal

// Completed reports whether key has a durable done record.
func (l *Log) Completed(key string) bool {
	_, ok := l.Done[key]
	return ok
}
