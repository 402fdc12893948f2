// mtlint fixture: the broadcast call must trip `notify-all`; the method
// definition of the same name must not.
struct Gate {
    cv: std::sync::Condvar,
}

impl Gate {
    // A definition named notify_all is not a call site.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}
