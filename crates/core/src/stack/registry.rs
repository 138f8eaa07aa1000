//! Algorithm 1's structural half: the module catalogue, module creation
//! with recursive default providers (`create_module`, lines 22–28),
//! binding, unbinding and destruction.

use super::dispatch::Work;
use super::route::Waiting;
use super::{ModuleSlot, Stack, StackError};
use crate::ids::{ModuleId, Name, ServiceId};
use crate::module::{Module, ModuleSpec};
use crate::trace::TraceEvent;
use crate::vecmap::{insert_exact, retain_exact, VecMap};
use crate::wire::Decode;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A module constructor, as stored in the registry: shared by every copy
/// of the registry, and so by every stack of a group, which may live on
/// different threads — hence `Sync`.
pub(crate) type ModuleFactory =
    Arc<dyn Fn(&ModuleSpec) -> Result<Box<dyn Module>, StackError> + Send + Sync>;

/// A group's module catalogue: the module factories, keyed by kind name,
/// and the default provider of each service (Algorithm 1, line 27: "find
/// a module q providing service s").
///
/// A factory builds a fresh module instance from a [`ModuleSpec`]. The
/// catalogue is consulted by [`Stack::install`] and by the recursive
/// default-provider creation of Algorithm 1. It is the same for every
/// stack of a group, so the stacks share it: a clone is a pointer copy,
/// and registering on a registry that shares its catalogue copies the
/// catalogue first, leaving the other holders alone. An empty registry
/// is one null word.
#[derive(Clone, Default)]
pub struct FactoryRegistry(Option<Arc<Catalogue>>);

#[derive(Clone, Default)]
struct Catalogue {
    factories: BTreeMap<String, ModuleFactory>,
    defaults: VecMap<ServiceId, ModuleSpec>,
}

impl FactoryRegistry {
    /// An empty registry. Allocates nothing.
    pub fn new() -> FactoryRegistry {
        FactoryRegistry::default()
    }

    /// The catalogue to change: this registry's own, copied out of the
    /// share first if another registry holds it too.
    fn own(&mut self) -> &mut Catalogue {
        Arc::make_mut(self.0.get_or_insert_with(Default::default))
    }

    /// Register the factory of a `kind` whose [`ModuleSpec::params`] are
    /// a wire-encoded `P` (`()` for a kind that takes none): an empty
    /// blob means `P::default()`, anything else must decode — a blob that
    /// does not is a [`StackError::Wire`] out of
    /// [`FactoryRegistry::build`], never a silently defaulted module
    /// (whose namespace 0 would share wire tags with the first
    /// incarnation). Later registrations replace earlier ones. The
    /// factory is shared by every clone of the registry, on whatever
    /// thread its stack runs, so it must be `Send + Sync`.
    pub fn register_with<P: Decode + Default, M: Module>(
        &mut self,
        kind: impl Into<String>,
        make: impl Fn(P) -> M + Send + Sync + 'static,
    ) {
        let factory = move |spec: &ModuleSpec| -> Result<Box<dyn Module>, StackError> {
            let params = if spec.params.is_empty() { P::default() } else { spec.params::<P>()? };
            Ok(Box::new(make(params)))
        };
        self.own().factories.insert(kind.into(), Arc::new(factory));
    }

    /// Make `spec` the default provider of `service`: what the recursive
    /// module creation of Algorithm 1 creates for a required service that
    /// has no bound module. Later settings replace earlier ones.
    pub fn set_default(&mut self, service: ServiceId, spec: ModuleSpec) {
        self.own().defaults.insert(service, spec);
    }

    /// Build a module from `spec`, if its kind is registered and its
    /// parameters decode.
    pub fn build(&self, spec: &ModuleSpec) -> Result<Box<dyn Module>, StackError> {
        match self.0.as_ref().and_then(|c| c.factories.get(&spec.kind)) {
            Some(f) => f(spec),
            None => Err(StackError::UnknownKind(spec.kind.clone())),
        }
    }

    /// Build the default provider of `service`.
    fn build_default(&self, service: &ServiceId) -> Result<Box<dyn Module>, StackError> {
        match self.0.as_ref().and_then(|c| c.defaults.get(service)) {
            Some(spec) => self.build(spec),
            None => Err(StackError::NoDefaultProvider(*service)),
        }
    }

    /// Whether a factory for `kind` exists.
    pub fn contains(&self, kind: &str) -> bool {
        self.0.as_ref().is_some_and(|c| c.factories.contains_key(kind))
    }
}

impl fmt::Debug for FactoryRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let catalogue = self.0.as_deref();
        f.debug_struct("FactoryRegistry")
            .field("kinds", &catalogue.map(|c| c.factories.keys().collect::<Vec<_>>()))
            .field("defaults", &catalogue.map(|c| &c.defaults))
            .finish()
    }
}

impl Stack {
    /// Create a module from `spec` via the factory registry and wire it in
    /// per Algorithm 1 lines 22–28: bind each provided service that is
    /// currently unbound, then recursively create default providers for
    /// required services with no bound module.
    pub fn install(&mut self, spec: &ModuleSpec) -> Result<ModuleId, StackError> {
        let module = self.factory.build(spec)?;
        let id = self.add_module(module);
        self.wire_in(id)?;
        Ok(id)
    }

    fn wire_in(&mut self, id: ModuleId) -> Result<(), StackError> {
        let module = self.modules.get(&id).and_then(|slot| slot.module.as_ref());
        let module = module.ok_or(StackError::UnknownModule(id))?;
        let (provides, requires) = (module.provides(), module.requires());
        for svc in &provides {
            if !self.bindings.contains_key(svc) {
                self.bind(svc, id);
            }
        }
        for svc in &requires {
            if !self.bindings.contains_key(svc) {
                let dep = self.factory.build_default(svc)?;
                let dep_id = self.add_module(dep);
                self.wire_in(dep_id)?;
            }
        }
        Ok(())
    }

    /// Insert an already-constructed module (no binding, no recursion):
    /// what [`Stack::install`] does before it wires the module in.
    /// Probes and tests call it directly.
    pub fn add_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        let id = self.next_module_id();
        let kind = Name::new(module.kind());
        let requires = module.requires();
        for svc in &requires {
            // Ids ascend: the new module goes last among the service's
            // requirers, in registration order.
            let i = self.requirers.partition_point(|&r| r <= (*svc, id));
            insert_exact(&mut self.requirers, i, (*svc, id));
        }
        self.trace.push(self.now, TraceEvent::ModuleCreated { stack: self.id, module: id, kind });
        // What arrived for this module before it existed comes right
        // after its `on_start`, in arrival order.
        for svc in &requires {
            let Some(channel) = module.listens_on(svc) else { continue };
            let held = self.release_waiting(svc, |w| match w {
                Waiting::Response(resp, on) if on == channel => Ok(resp),
                w => Err(w),
            });
            if !held.is_empty() {
                self.telemetry.note_released(held.len() as u64);
            }
            for resp in held {
                self.enqueue(id, Work::Response(resp));
            }
        }
        self.modules.insert(id, ModuleSlot { module: Some(module), kind });
        id
    }

    /// Take what waits on `service` that `pick` accepts (`Ok`), in order,
    /// and leave what it hands back (`Err`) waiting.
    fn release_waiting<T>(
        &mut self,
        service: &ServiceId,
        mut pick: impl FnMut(Waiting) -> Result<T, Waiting>,
    ) -> Vec<T> {
        let Some(all) = self.waiting.remove(service) else { return Vec::new() };
        let (mut taken, mut kept) = (Vec::new(), VecDeque::new());
        for w in all {
            match pick(w) {
                Ok(t) => taken.push(t),
                Err(w) => kept.push_back(w),
            }
        }
        if !kept.is_empty() {
            self.waiting.insert(*service, kept);
        }
        taken
    }

    /// Bind `module` to `service` (paper §2 "Module bindings"). Any
    /// previously bound module is implicitly unbound first. Calls blocked
    /// on the service are released in FIFO order.
    pub fn bind(&mut self, service: &ServiceId, module: ModuleId) {
        if let Some(prev) = self.bindings.insert(*service, module) {
            if prev != module {
                self.trace.push(
                    self.now,
                    TraceEvent::Unbind { stack: self.id, service: *service, module: prev },
                );
            }
        }
        self.trace.push(self.now, TraceEvent::Bind { stack: self.id, service: *service, module });
        let blocked = self.release_waiting(service, |w| match w {
            Waiting::Call(call) => Ok(call),
            w => Err(w),
        });
        for call in blocked {
            self.trace.push(
                self.now,
                TraceEvent::ReleasedCall {
                    stack: self.id,
                    service: *service,
                    op: call.op,
                    from: call.from,
                },
            );
            self.enqueue(module, Work::Call(call));
        }
    }

    /// Unbind whatever module is bound to `service`. Subsequent calls to
    /// the service block until a new module is bound. Unbinding does *not*
    /// remove the module from the stack (paper §2).
    pub fn unbind(&mut self, service: &ServiceId) {
        if let Some(prev) = self.bindings.remove(service) {
            self.trace.push(
                self.now,
                TraceEvent::Unbind { stack: self.id, service: *service, module: prev },
            );
        }
    }

    /// Unbind `module` from every service it is bound to.
    pub(super) fn unbind_all(&mut self, module: ModuleId) {
        let bound: Vec<ServiceId> =
            self.bindings.iter().filter(|(_, m)| **m == module).map(|(s, _)| *s).collect();
        for svc in bound {
            self.unbind(&svc);
        }
    }

    /// Destroy a module: unbind it from any service it is bound to now,
    /// and queue its removal, a step of its own
    /// ([`StepCategory::Stop`](super::StepCategory::Stop)). Work queued
    /// for it ahead of that step still runs; anything later is dropped.
    pub fn destroy_module(&mut self, id: ModuleId) {
        if !self.modules.contains_key(&id) {
            return;
        }
        self.unbind_all(id);
        self.enqueue(id, Work::Stop);
    }

    /// Forget a destroyed module: its slot, its bindings and its place
    /// among the requirers. Its armed timers stay in the table, still due
    /// and still waking the host, and fire into nothing.
    pub(super) fn remove_module_records(&mut self, id: ModuleId) {
        self.modules.remove(&id);
        self.unbind_all(id);
        retain_exact(&mut self.requirers, |&(_, m)| m != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Call, Response};
    use crate::stack::tests::{new_stack, run_until_idle, Client, Echo};
    use crate::stack::{ModuleCtx, StackConfig};
    use bytes::Bytes;

    #[test]
    fn unbind_then_bind_preserves_fifo_order() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, echo);
        stack.unbind(&svc);
        for i in 0..5u8 {
            stack.call_as(client, &svc, 1, Bytes::copy_from_slice(&[i]));
        }
        stack.bind(&svc, echo);
        run_until_idle(&mut stack);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        let order: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn at_most_one_module_bound_per_service() {
        let mut stack = new_stack();
        let a = stack.add_module(Box::new(Echo));
        let b = stack.add_module(Box::new(Echo));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, a);
        assert_eq!(stack.bound(&svc), Some(a));
        stack.bind(&svc, b);
        assert_eq!(stack.bound(&svc), Some(b));
        // The old module is still in the stack (unbinding does not remove).
        assert!(stack.module_kind(a).is_some());
    }

    #[test]
    fn install_recursively_creates_default_providers() {
        // upper requires "mid"; mid requires "low"; low requires nothing.
        struct Svc {
            name: &'static str,
            kind_name: &'static str,
            deps: Vec<&'static str>,
        }
        impl Module for Svc {
            fn kind(&self) -> &str {
                self.kind_name
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new(self.name)]
            }
            fn requires(&self) -> Vec<ServiceId> {
                self.deps.iter().map(ServiceId::new).collect()
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        }
        let mut reg = FactoryRegistry::new();
        reg.register_with("upper", |()| Svc { name: "up", kind_name: "upper", deps: vec!["mid"] });
        reg.register_with("middle", |()| Svc {
            name: "mid",
            kind_name: "middle",
            deps: vec!["low"],
        });
        reg.register_with("lower", |()| Svc { name: "low", kind_name: "lower", deps: vec![] });
        reg.set_default(ServiceId::new("mid"), ModuleSpec::new("middle"));
        reg.set_default(ServiceId::new("low"), ModuleSpec::new("lower"));
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), reg);
        let up = stack.install(&ModuleSpec::new("upper")).unwrap();
        assert_eq!(stack.bound(&ServiceId::new("up")), Some(up));
        assert!(stack.bound(&ServiceId::new("mid")).is_some());
        assert!(stack.bound(&ServiceId::new("low")).is_some());
        // Installing again binds nothing new (services already bound).
        let up2 = stack.install(&ModuleSpec::new("upper")).unwrap();
        assert_ne!(up, up2);
        assert_eq!(stack.bound(&ServiceId::new("up")), Some(up));
    }

    #[test]
    fn install_fails_without_default_provider() {
        struct Needy;
        impl Module for Needy {
            fn kind(&self) -> &str {
                "needy"
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("n")]
            }
            fn requires(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("missing")]
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        }
        let mut reg = FactoryRegistry::new();
        reg.register_with("needy", |()| Needy);
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), reg);
        let err = stack.install(&ModuleSpec::new("needy")).unwrap_err();
        assert_eq!(err, StackError::NoDefaultProvider(ServiceId::new("missing")));
        let err2 = stack.install(&ModuleSpec::new("nope")).unwrap_err();
        assert_eq!(err2, StackError::UnknownKind("nope".into()));
    }

    #[test]
    fn a_clone_shares_the_catalogue_until_it_changes_its_own() {
        let empty = FactoryRegistry::new();
        assert!(empty.0.is_none() && std::mem::size_of::<FactoryRegistry>() == 8);
        let echo = ServiceId::new("echo");
        let mut reg = FactoryRegistry::new();
        reg.register_with("echo", |()| Echo);
        reg.set_default(echo, ModuleSpec::new("echo"));
        let shared = |a: &FactoryRegistry, b: &FactoryRegistry| match (&a.0, &b.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let mut copy = reg.clone();
        assert!(shared(&reg, &copy), "a clone is a pointer copy");
        copy.set_default(echo, ModuleSpec::new("other"));
        assert!(!shared(&reg, &copy), "changing a shared catalogue copies it first");
        assert_eq!(reg.build_default(&echo).map(|m| m.kind().to_string()), Ok("echo".into()));
        assert_eq!(copy.build_default(&echo).err(), Some(StackError::UnknownKind("other".into())));
        assert!(copy.contains("echo"), "the copy keeps what it was cloned with");
        // Two stacks of one group hold one catalogue.
        let (a, b) = (Stack::new(StackConfig::nth(0, 2, 1), reg.clone()), reg.clone());
        assert!(shared(&a.factory, &b) && shared(&a.factory, &reg));
    }

    #[test]
    fn destroy_module_unbinds_and_removes() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, echo);
        stack.destroy_module(echo);
        run_until_idle(&mut stack);
        assert_eq!(stack.bound(&svc), None);
        assert!(stack.module_kind(echo).is_none());
        assert!(stack
            .trace()
            .events()
            .any(|(_, e)| matches!(e, TraceEvent::ModuleDestroyed { .. })));
    }

    #[test]
    fn a_response_fans_out_in_registration_order_across_destroy_and_reinstall() {
        /// Requires its services; ignores what it gets.
        struct Needs(&'static [&'static str]);
        impl Module for Needs {
            fn kind(&self) -> &str {
                "needs"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                self.0.iter().map(ServiceId::new).collect()
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        }
        let mut reg = FactoryRegistry::new();
        reg.register_with("client", |()| Client::default());
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), reg);
        let svc = ServiceId::new("echo");
        let echo = stack.add_module(Box::new(Echo));
        stack.bind(&svc, echo);
        // Another service's requirers share the table.
        let a = stack.add_module(Box::new(Needs(&["echo", "side"])));
        let b = stack.add_module(Box::new(Needs(&["side", "echo"])));
        stack.add_module(Box::new(Needs(&["side"])));
        let c = stack.add_module(Box::new(Client::default()));
        run_until_idle(&mut stack);
        let fanout = |stack: &mut Stack| {
            stack.call_as(a, &svc, 1, Bytes::new());
            let mut reached = Vec::new();
            while let Some(info) = stack.step(crate::time::Time(1)) {
                if info.category == crate::stack::StepCategory::Response {
                    reached.push(info.module);
                }
            }
            reached
        };
        assert_eq!(fanout(&mut stack), [a, b, c]);
        stack.destroy_module(b);
        run_until_idle(&mut stack);
        assert!(stack.requirers.iter().all(|&(_, m)| m != b), "b left the table");
        let d = stack.install(&ModuleSpec::new("client")).unwrap();
        run_until_idle(&mut stack);
        assert_eq!(fanout(&mut stack), [a, c, d]);
        let pairs = stack.requirers.len();
        assert_eq!(pairs, 5, "two for a, one each for the side-only module, c and d");
    }
}
