package pager

// lruList holds the evictable (unpinned) frames of the buffer pool as a
// doubly-linked list ordered by recency of unpinning: head most recent,
// tail the next victim. All calls happen under the pager mutex.
type lruList struct {
	head, tail *frame
}

// push adds a frame at the most-recent end (its pin count hit zero).
func (l *lruList) push(fr *frame) {
	fr.prev = nil
	fr.next = l.head
	if l.head != nil {
		l.head.prev = fr
	}
	l.head = fr
	if l.tail == nil {
		l.tail = fr
	}
}

// unlink takes a frame out of the list (it was pinned again, or is being
// discarded). Unlinking a frame that is not in the list is a no-op.
func (l *lruList) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else if l.head == fr {
		l.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else if l.tail == fr {
		l.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}
