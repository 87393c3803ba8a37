#include "bookstore/bookstore.h"

#include <array>

#include "common/strings.h"

namespace phoenix::bookstore {
namespace {

// Title vocabulary; every store carries some "recovery" titles so the
// paper's keyword search finds hits in each store.
constexpr std::array<const char*, 10> kTopics = {
    "recovery",     "transaction", "logging",   "checkpoint", "replication",
    "concurrency",  "indexing",    "queues",    "recovery",   "optimization"};

}  // namespace

void Bookstore::RegisterMethods(MethodRegistry& methods) {
  methods.Register(
      "Search", [this](const ArgList& a) { return Search(a); },
      MethodTraits{.read_only = true});
  methods.Register(
      "GetBook", [this](const ArgList& a) { return GetBook(a); },
      MethodTraits{.read_only = true});
  methods.Register("Buy", [this](const ArgList& a) { return Buy(a); });
  methods.Register("Reserve",
                   [this](const ArgList& a) { return Reserve(a); });
  methods.Register("Release",
                   [this](const ArgList& a) { return Release(a); });
  methods.Register("ConfirmSale",
                   [this](const ArgList& a) { return ConfirmSale(a); });
  methods.Register("Restock",
                   [this](const ArgList& a) { return Restock(a); });
  methods.Register(
      "TotalSold",
      [this](const ArgList&) -> Result<Value> { return Value(total_sold_); },
      MethodTraits{.read_only = true});
}

void Bookstore::RegisterFields(FieldRegistry& fields) {
  fields.RegisterString("label", &label_);
  fields.RegisterValue("catalog", &catalog_);
  fields.RegisterInt("total_sold", &total_sold_);
}

Status Bookstore::Initialize(const ArgList& args) {
  if (args.size() != 1 || args[0].kind() != Value::Kind::kString) {
    return Status::InvalidArgument("Bookstore(label)");
  }
  label_ = args[0].AsString();
  // Deterministic catalog: 10 titles derived from the label.
  Value::List catalog;
  int64_t price_seed = 0;
  for (char c : label_) price_seed += c;
  for (int64_t i = 0; i < static_cast<int64_t>(kTopics.size()); ++i) {
    Value::List entry;
    entry.emplace_back(i + 1);
    entry.emplace_back(StrCat("The ", kTopics[i], " book (", label_, " ed.)"));
    entry.emplace_back(static_cast<double>((price_seed + 13 * i) % 40 + 10));
    entry.emplace_back(int64_t{25});
    catalog.emplace_back(std::move(entry));
  }
  catalog_ = Value(std::move(catalog));
  return Status::OK();
}

Value::List* Bookstore::FindEntry(int64_t book_id) {
  for (Value& entry : catalog_.MutableList()) {
    if (entry.AsList()[0].AsInt() == book_id) return &entry.MutableList();
  }
  return nullptr;
}

Result<Value> Bookstore::Search(const ArgList& args) {
  if (args.size() != 1 || args[0].kind() != Value::Kind::kString) {
    return Status::InvalidArgument("Search(keyword)");
  }
  Work(0.01);  // catalog scan
  const std::string& keyword = args[0].AsString();
  Value::List hits;
  for (const Value& entry : catalog_.AsList()) {
    if (entry.AsList()[1].AsString().find(keyword) != std::string::npos) {
      hits.push_back(entry);
    }
  }
  return Value(std::move(hits));
}

Result<Value> Bookstore::GetBook(const ArgList& args) {
  if (args.size() != 1 || args[0].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("GetBook(book_id)");
  }
  Value::List* entry = FindEntry(args[0].AsInt());
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  return Value(*entry);
}

Result<Value> Bookstore::Buy(const ArgList& args) {
  if (args.size() != 2 || args[0].kind() != Value::Kind::kInt ||
      args[1].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("Buy(book_id, qty)");
  }
  Value::List* entry = FindEntry(args[0].AsInt());
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  int64_t qty = args[1].AsInt();
  int64_t stock = (*entry)[3].AsInt();
  if (qty <= 0) return Status::InvalidArgument("qty must be positive");
  if (stock < qty) {
    return Status::FailedPrecondition(
        StrCat("only ", stock, " left of book ", args[0].AsInt()));
  }
  (*entry)[3] = Value(stock - qty);
  total_sold_ += qty;
  return Value(stock - qty);
}

Result<Value> Bookstore::Reserve(const ArgList& args) {
  if (args.size() != 2 || args[0].kind() != Value::Kind::kInt ||
      args[1].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("Reserve(book_id, qty)");
  }
  Value::List* entry = FindEntry(args[0].AsInt());
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  int64_t qty = args[1].AsInt();
  int64_t stock = (*entry)[3].AsInt();
  if (qty <= 0) return Status::InvalidArgument("qty must be positive");
  if (stock < qty) {
    return Status::FailedPrecondition(
        StrCat("only ", stock, " left of book ", args[0].AsInt()));
  }
  (*entry)[3] = Value(stock - qty);
  return Value(*entry);
}

Result<Value> Bookstore::Release(const ArgList& args) {
  if (args.size() != 2 || args[0].kind() != Value::Kind::kInt ||
      args[1].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("Release(book_id, qty)");
  }
  Value::List* entry = FindEntry(args[0].AsInt());
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  int64_t stock = (*entry)[3].AsInt() + args[1].AsInt();
  (*entry)[3] = Value(stock);
  return Value(stock);
}

Result<Value> Bookstore::ConfirmSale(const ArgList& args) {
  if (args.size() != 2 || args[0].kind() != Value::Kind::kInt ||
      args[1].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("ConfirmSale(book_id, qty)");
  }
  if (FindEntry(args[0].AsInt()) == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  total_sold_ += args[1].AsInt();
  return Value(total_sold_);
}

Result<Value> Bookstore::Restock(const ArgList& args) {
  if (args.size() != 2 || args[0].kind() != Value::Kind::kInt ||
      args[1].kind() != Value::Kind::kInt) {
    return Status::InvalidArgument("Restock(book_id, qty)");
  }
  Value::List* entry = FindEntry(args[0].AsInt());
  if (entry == nullptr) {
    return Status::NotFound(StrCat("no book ", args[0].AsInt()));
  }
  int64_t stock = (*entry)[3].AsInt() + args[1].AsInt();
  (*entry)[3] = Value(stock);
  return Value(stock);
}

}  // namespace phoenix::bookstore
