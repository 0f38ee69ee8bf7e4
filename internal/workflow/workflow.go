// Package workflow implements the TeNDaX in-document business processes:
// ad-hoc task chains (translate, verify, approve, …) attached to document
// parts, assigned to users or roles, and re-routable dynamically at run
// time (paper §3, "Business process definitions and flow").
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// Task and process states.
const (
	ProcActive    = "active"
	ProcCompleted = "completed"

	TaskPending  = "pending"
	TaskActive   = "active" // accepted by an assignee
	TaskDone     = "done"
	TaskRejected = "rejected"
	TaskSkipped  = "skipped"
)

// ErrNotAssignee reports a task action by a non-assignee.
var ErrNotAssignee = errors.New("workflow: user is not an assignee of this task")

// ErrBadState reports a task/process state transition that is not allowed.
var ErrBadState = errors.New("workflow: invalid state transition")

// ErrNotFound reports an unknown process or task.
var ErrNotFound = errors.New("workflow: not found")

// RoleSource resolves a user's roles, used to match "role:" assignees.
// security.Store implements it; a nil source matches user principals only.
type RoleSource interface {
	RolesOf(user string) ([]string, error)
}

// Process is one business process instance inside a document.
type Process struct {
	ID      util.ID
	Doc     util.ID
	Name    string
	Creator string
	Created time.Time
	State   string
}

// Task is one step of a process, assigned to a user or role, optionally
// anchored to a character range of the document.
type Task struct {
	ID          util.ID
	Proc        util.ID
	Doc         util.ID
	Kind        string // translate, verify, approve, write, …
	Description string
	Assignee    string // "user:name" or "role:name"
	State       string
	Order       int64 // routing order within the process (gaps allow insertion)
	Start       util.ID
	End         util.ID
	CompletedBy string
	CompletedAt time.Time
	Note        string
}

var (
	procsSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "name", Type: db.TString},
		{Name: "creator", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "state", Type: db.TString},
	}
	tasksSchema = db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "proc", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "kind", Type: db.TString},
		{Name: "descr", Type: db.TString},
		{Name: "assignee", Type: db.TString},
		{Name: "state", Type: db.TString},
		{Name: "ord", Type: db.TInt},
		{Name: "startc", Type: db.TInt},
		{Name: "endc", Type: db.TInt},
		{Name: "doneby", Type: db.TString},
		{Name: "doneat", Type: db.TTime},
		{Name: "note", Type: db.TString},
	}
)

const orderGap = 1 << 20 // initial spacing between task orders

// Store is the workflow subsystem over the shared database.
type Store struct {
	eng    *core.Engine
	roles  RoleSource
	tProcs *db.Table
	tTasks *db.Table
}

// NewStore opens the workflow tables. roles may be nil.
func NewStore(eng *core.Engine, roles RoleSource) (*Store, error) {
	s := &Store{eng: eng, roles: roles}
	var err error
	if s.tProcs, err = eng.DB().CreateTable("wf_procs", procsSchema, "doc"); err != nil {
		return nil, err
	}
	if s.tTasks, err = eng.DB().CreateTable("wf_tasks", tasksSchema, "proc", "doc", "assignee"); err != nil {
		return nil, err
	}
	return s, nil
}

// Define creates a process inside doc.
func (s *Store) Define(user string, doc util.ID, name string) (Process, error) {
	if err := s.checkWorkflowRight(user, doc); err != nil {
		return Process{}, err
	}
	id := s.eng.NewID()
	now := s.eng.Clock().Now()
	err := s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tProcs.Insert(tx, db.Row{int64(id), int64(doc), name, user, now, ProcActive})
		return err
	})
	if err != nil {
		return Process{}, err
	}
	p := Process{ID: id, Doc: doc, Name: name, Creator: user, Created: now, State: ProcActive}
	s.publish(doc, user, "process "+name+" defined")
	return p, nil
}

// AddTask appends a task to the process chain. assignee is "user:x" or
// "role:y". A non-nil anchor range ties the task to document content.
func (s *Store) AddTask(user string, proc util.ID, kind, descr, assignee string, start, end util.ID) (Task, error) {
	p, err := s.ProcessByID(proc)
	if err != nil {
		return Task{}, err
	}
	if p.State != ProcActive {
		return Task{}, fmt.Errorf("%w: process %s is %s", ErrBadState, p.Name, p.State)
	}
	tasks, err := s.Tasks(proc)
	if err != nil {
		return Task{}, err
	}
	var maxOrder int64
	for _, t := range tasks {
		if t.Order > maxOrder {
			maxOrder = t.Order
		}
	}
	return s.insertTask(user, p, kind, descr, assignee, maxOrder+orderGap, start, end)
}

// InsertTaskAfter routes a new task dynamically into the middle of a
// process, directly after task afterID — run-time re-routing per the paper.
func (s *Store) InsertTaskAfter(user string, proc util.ID, afterID util.ID, kind, descr, assignee string) (Task, error) {
	p, err := s.ProcessByID(proc)
	if err != nil {
		return Task{}, err
	}
	tasks, err := s.Tasks(proc)
	if err != nil {
		return Task{}, err
	}
	var after, next *Task
	for i := range tasks {
		if tasks[i].ID == afterID {
			after = &tasks[i]
			if i+1 < len(tasks) {
				next = &tasks[i+1]
			}
			break
		}
	}
	if after == nil {
		return Task{}, fmt.Errorf("%w: task %v", ErrNotFound, afterID)
	}
	var order int64
	if next == nil {
		order = after.Order + orderGap
	} else {
		order = (after.Order + next.Order) / 2
		if order == after.Order {
			return Task{}, errors.New("workflow: order space exhausted between tasks")
		}
	}
	return s.insertTask(user, p, kind, descr, assignee, order, util.NilID, util.NilID)
}

func (s *Store) insertTask(user string, p Process, kind, descr, assignee string, order int64, start, end util.ID) (Task, error) {
	if err := s.checkWorkflowRight(user, p.Doc); err != nil {
		return Task{}, err
	}
	id := s.eng.NewID()
	t := Task{
		ID: id, Proc: p.ID, Doc: p.Doc, Kind: kind, Description: descr,
		Assignee: assignee, State: TaskPending, Order: order, Start: start, End: end,
	}
	err := s.withTxn(func(tx *txn.Txn) error {
		_, err := s.tTasks.Insert(tx, s.taskRow(&t))
		return err
	})
	if err != nil {
		return Task{}, err
	}
	s.publish(p.Doc, user, fmt.Sprintf("task %s -> %s", kind, assignee))
	return t, nil
}

// Reroute changes a pending task's assignee at run time.
func (s *Store) Reroute(user string, taskID util.ID, newAssignee string) error {
	t, err := s.TaskByID(taskID)
	if err != nil {
		return err
	}
	if t.State != TaskPending && t.State != TaskActive {
		return fmt.Errorf("%w: cannot reroute %s task", ErrBadState, t.State)
	}
	if err := s.checkWorkflowRight(user, t.Doc); err != nil {
		return err
	}
	t.Assignee = newAssignee
	t.State = TaskPending
	if err := s.updateTask(&t); err != nil {
		return err
	}
	s.publish(t.Doc, user, fmt.Sprintf("task %s rerouted to %s", t.Kind, newAssignee))
	return nil
}

// Accept lets an assignee start working on a pending task.
func (s *Store) Accept(user string, taskID util.ID) error {
	t, err := s.TaskByID(taskID)
	if err != nil {
		return err
	}
	if t.State != TaskPending {
		return fmt.Errorf("%w: accept of %s task", ErrBadState, t.State)
	}
	if !s.isAssignee(user, t.Assignee) {
		return fmt.Errorf("%w: %s on task %v (%s)", ErrNotAssignee, user, taskID, t.Assignee)
	}
	t.State = TaskActive
	if err := s.updateTask(&t); err != nil {
		return err
	}
	s.publish(t.Doc, user, fmt.Sprintf("task %s accepted", t.Kind))
	return nil
}

// Complete finishes a task. When it was the process's last open task, the
// process completes.
func (s *Store) Complete(user string, taskID util.ID, note string) error {
	return s.finish(user, taskID, TaskDone, note)
}

// Reject declines a task with a reason; the process stays active so the
// coordinator can reroute or skip.
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: workflow transitions
func (s *Store) Reject(user string, taskID util.ID, reason string) error {
	return s.finish(user, taskID, TaskRejected, reason)
}

// Skip cancels a single task (coordinator action).
//
//tendax:allow-testonly paper capability with no wire or CLI caller yet: workflow transitions
func (s *Store) Skip(user string, taskID util.ID) error {
	t, err := s.TaskByID(taskID)
	if err != nil {
		return err
	}
	if err := s.checkWorkflowRight(user, t.Doc); err != nil {
		return err
	}
	if t.State == TaskDone || t.State == TaskSkipped {
		return fmt.Errorf("%w: skip of %s task", ErrBadState, t.State)
	}
	t.State = TaskSkipped
	t.CompletedBy = user
	t.CompletedAt = s.eng.Clock().Now()
	if err := s.updateTask(&t); err != nil {
		return err
	}
	s.maybeCompleteProcess(user, t.Proc)
	s.publish(t.Doc, user, fmt.Sprintf("task %s skipped", t.Kind))
	return nil
}

func (s *Store) finish(user string, taskID util.ID, state, note string) error {
	t, err := s.TaskByID(taskID)
	if err != nil {
		return err
	}
	if t.State != TaskPending && t.State != TaskActive {
		return fmt.Errorf("%w: finish of %s task", ErrBadState, t.State)
	}
	if !s.isAssignee(user, t.Assignee) {
		return fmt.Errorf("%w: %s on task %v (%s)", ErrNotAssignee, user, taskID, t.Assignee)
	}
	t.State = state
	t.CompletedBy = user
	t.CompletedAt = s.eng.Clock().Now()
	t.Note = note
	if err := s.updateTask(&t); err != nil {
		return err
	}
	if state == TaskDone {
		s.maybeCompleteProcess(user, t.Proc)
	}
	s.publish(t.Doc, user, fmt.Sprintf("task %s %s", t.Kind, state))
	return nil
}

// NextFor returns the pending/active tasks user can act on, in routing
// order: their work queue across all documents.
func (s *Store) NextFor(user string) ([]Task, error) {
	var out []Task
	err := s.tTasks.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
		t := s.taskFromRow(row)
		if (t.State == TaskPending || t.State == TaskActive) && s.isAssignee(user, t.Assignee) {
			out = append(out, t)
		}
		return true, nil
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Order < out[j].Order
	})
	return out, err
}

// ProcessByID fetches one process.
func (s *Store) ProcessByID(id util.ID) (Process, error) {
	row, _, err := s.tProcs.GetByPK(nil, int64(id))
	if errors.Is(err, db.ErrNotFound) {
		return Process{}, fmt.Errorf("%w: process %v", ErrNotFound, id)
	}
	if err != nil {
		return Process{}, err
	}
	return procFromRow(row), nil
}

// Tasks returns a process's tasks in routing order.
func (s *Store) Tasks(proc util.ID) ([]Task, error) {
	rids, err := s.tTasks.LookupEq("proc", int64(proc))
	if err != nil {
		return nil, err
	}
	out := make([]Task, 0, len(rids))
	for _, rid := range rids {
		row, err := s.tTasks.Get(nil, rid)
		if err != nil {
			continue
		}
		out = append(out, s.taskFromRow(row))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// TaskByID fetches one task.
func (s *Store) TaskByID(id util.ID) (Task, error) {
	row, _, err := s.tTasks.GetByPK(nil, int64(id))
	if errors.Is(err, db.ErrNotFound) {
		return Task{}, fmt.Errorf("%w: task %v", ErrNotFound, id)
	}
	if err != nil {
		return Task{}, err
	}
	return s.taskFromRow(row), nil
}

// isAssignee matches user against a task assignee principal.
func (s *Store) isAssignee(user, assignee string) bool {
	switch {
	case assignee == "*":
		return true
	case assignee == "user:"+user:
		return true
	}
	if s.roles != nil {
		if roles, err := s.roles.RolesOf(user); err == nil {
			for _, r := range roles {
				if assignee == "role:"+r {
					return true
				}
			}
		}
	}
	return false
}

// maybeCompleteProcess closes the process when no open tasks remain.
func (s *Store) maybeCompleteProcess(user string, proc util.ID) {
	tasks, err := s.Tasks(proc)
	if err != nil {
		return
	}
	for _, t := range tasks {
		if t.State == TaskPending || t.State == TaskActive {
			return
		}
	}
	p, err := s.ProcessByID(proc)
	if err != nil || p.State != ProcActive {
		return
	}
	s.withTxn(func(tx *txn.Txn) error {
		return s.tProcs.UpdateByPK(tx, int64(proc), db.Row{
			int64(p.ID), int64(p.Doc), p.Name, p.Creator, p.Created, ProcCompleted,
		})
	})
	s.publish(p.Doc, user, "process "+p.Name+" completed")
}

// checkWorkflowRight defers to the engine's access checker for RWorkflow
// (the creator/open-document policies live there).
func (s *Store) checkWorkflowRight(user string, doc util.ID) error {
	return s.eng.CheckAccess(user, doc, core.RWorkflow)
}

func (s *Store) publish(doc util.ID, user, name string) {
	s.eng.Bus().Publish(awareness.Event{
		Doc: doc, Kind: awareness.EvWorkflow, User: user, Name: name,
		At: s.eng.Clock().Now(),
	})
}

func (s *Store) updateTask(t *Task) error {
	return s.withTxn(func(tx *txn.Txn) error {
		return s.tTasks.UpdateByPK(tx, int64(t.ID), s.taskRow(t))
	})
}

func (s *Store) taskRow(t *Task) db.Row {
	doneAt := t.CompletedAt
	if doneAt.IsZero() {
		doneAt = time.Unix(0, 0).UTC()
	}
	return db.Row{
		int64(t.ID), int64(t.Proc), int64(t.Doc), t.Kind, t.Description,
		t.Assignee, t.State, t.Order, int64(t.Start), int64(t.End),
		t.CompletedBy, doneAt, t.Note,
	}
}

func (s *Store) taskFromRow(row db.Row) Task {
	at := row[11].(time.Time)
	if at.Equal(time.Unix(0, 0).UTC()) {
		at = time.Time{}
	}
	return Task{
		ID:          util.ID(row[0].(int64)),
		Proc:        util.ID(row[1].(int64)),
		Doc:         util.ID(row[2].(int64)),
		Kind:        row[3].(string),
		Description: row[4].(string),
		Assignee:    row[5].(string),
		State:       row[6].(string),
		Order:       row[7].(int64),
		Start:       util.ID(row[8].(int64)),
		End:         util.ID(row[9].(int64)),
		CompletedBy: row[10].(string),
		CompletedAt: at,
		Note:        row[12].(string),
	}
}

func procFromRow(row db.Row) Process {
	return Process{
		ID:      util.ID(row[0].(int64)),
		Doc:     util.ID(row[1].(int64)),
		Name:    row[2].(string),
		Creator: row[3].(string),
		Created: row[4].(time.Time),
		State:   row[5].(string),
	}
}

func (s *Store) withTxn(fn func(tx *txn.Txn) error) error {
	const retries = 8
	for attempt := 0; ; attempt++ {
		tx, err := s.eng.DB().Begin()
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			return tx.Commit()
		}
		_ = tx.Abort()
		if !errors.Is(err, txn.ErrDeadlock) || attempt >= retries {
			return err
		}
	}
}
